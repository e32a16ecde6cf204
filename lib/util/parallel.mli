(** A small Domain work-pool (OCaml 5 stdlib only, no dependencies).

    {!map} takes tasks as list elements, runs them on at most [jobs]
    domains, and is {e deterministic}: the result is identical for
    every job count, including [jobs:1] (which degenerates to
    [List.map] and spawns nothing). The job count
    defaults to [min 4 (Domain.recommended_domain_count ())] and can be
    overridden with the [LPH_JOBS] environment variable (read on every
    call, so tests can toggle it). Nested calls run sequentially in the
    inner layer rather than oversubscribing the machine.

    Helper domains persist across calls: the first parallel call spawns
    a shared worker team that every later {!map} and {!with_team}
    call re-dispatches onto (two condition-variable broadcasts per
    batch instead of fresh domain spawns), sized to the effective job
    count and resized when [LPH_JOBS] changes. The team is leased with
    a try-lock — a second thread calling in while the team is busy
    falls back to spawning throwaway domains for that one call, so
    results never depend on who got the lease. Helpers are joined
    [at_exit].

    Tasks must not rely on shared mutable state for their results; an
    exception raised by any task is re-raised in the caller. *)

val jobs : unit -> int
(** The effective default job count ([LPH_JOBS] override included).
    Raises [Invalid_argument] if [LPH_JOBS] is set but not a positive
    integer. *)

val prewarm : ?jobs:int -> unit -> unit
(** Spawn (or resize) the shared worker team now, so the first real
    batch doesn't pay the domain-spawn latency — the serve daemon calls
    this at startup. A no-op when the effective job count is 1 or the
    team is already warm at that width. *)

val domains_spawned : unit -> int
(** Total domains this module has ever spawned (shared team plus
    throwaway fallbacks) — an observability counter for asserting pool
    reuse: a warmed pool serves any number of batches without it
    moving. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]; results in input order. *)

(** {1 Persistent worker team}

    For round-structured workloads (the synchronous {!Lph_machine.Runner})
    that dispatch many small batches: domains are spawned once and
    reused across batches, so a batch costs two condition-variable
    broadcasts instead of fresh domain spawns. Determinism contract as
    above: tasks must write only to their own slots; results are
    independent of the job count. *)

type team

val with_team : ?jobs:int -> (team -> 'a) -> 'a
(** [with_team f] runs [f] with a worker team of [jobs - 1] helper
    domains (none when the effective job count is 1, including inside a
    nested pool). The shared process-wide team is leased when free —
    the common case, costing no spawns at all — otherwise a private
    team is spawned and joined around [f], also on exceptions. *)

val team_iter : team -> int -> (int -> unit) -> unit
(** [team_iter t n task] runs [task 0 .. task (n-1)] across the team
    (the calling domain participates) and returns when all are done.
    The first exception raised by any task ends the batch early and is
    re-raised in the caller. *)

val team_jobs : team -> int
(** The team's effective job count. *)
