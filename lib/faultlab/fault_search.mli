(** Adversarial fault scheduling: find the explicit (kind, round, node)
    fault schedule that does the most damage to a workload under a
    {!Fault_model}'s budget.

    The search is greedy over the candidate grid (model kinds × rounds
    × nodes), growing the schedule one event at a time while the damage
    objective improves, capped at {!search_budget} objective
    evaluations. The objective is lexicographic: flipping
    the workload's verdict ≫ typed errors / divergence ≫ survivor-label
    damage ≫ round overhead; a crash-stop the quorum absorbs
    ({!Lph_machine.Runner.Degraded}) scores barely above zero. Results
    are deterministic in (workload, model, seed) — candidate order is
    fixed, faulted runs are forced sequential, positional choices are
    seeded hashes — and memoised per (workload, model, seed). *)

type workload = {
  w_name : string;
  w_graph : Lph_graph.Labeled_graph.t;
  w_ids : Lph_graph.Identifiers.t;
  w_algo : Lph_machine.Local_algo.packed option;
      (** runner probe: the algorithm the faults attack *)
  w_cert_list : string array option;
      (** the honest certificate-list assignment for the runner probe *)
  w_arbiter : Lph_hierarchy.Arbiter.t option;
      (** game probe: certificate attacks against the honest witness *)
  w_universes : Lph_hierarchy.Game.universe list;
}

val workload :
  ?algo:Lph_machine.Local_algo.packed ->
  ?cert_list:string array ->
  ?arbiter:Lph_hierarchy.Arbiter.t ->
  ?universes:Lph_hierarchy.Game.universe list ->
  name:string ->
  ids:Lph_graph.Identifiers.t ->
  Lph_graph.Labeled_graph.t ->
  workload

type verdict =
  | Survive  (** no in-budget schedule changed the verdict or outputs *)
  | Flip  (** some schedule flips the workload's verdict *)
  | Diverge
      (** no flip found, but some schedule breaks the run: typed
          error, divergence past the round limit, or label damage *)

val verdict_string : verdict -> string

type report = {
  r_workload : string;
  r_model : string;  (** {!Fault_model.to_string} *)
  r_verdict : verdict;
  r_flip_budget : int option;
      (** events in the cheapest verdict-flipping schedule found *)
  r_events : Lph_faults.Fault_plan.event list;  (** most damaging schedule *)
  r_spec : string option;  (** replay spec of that schedule's plan *)
  r_evals : int;  (** objective evaluations spent *)
  r_round_overhead : int;
      (** rounds of the most damaging run minus the fault-free run's *)
  r_degraded : bool;
      (** the most damaging outcome was graceful degradation *)
  r_base_accepts : bool;
}

val search_budget : int
(** The cap on objective evaluations per search: 2000. *)

val search : ?seed:int -> model:Lph_faults.Fault_model.t -> workload -> report
(** Run the greedy schedule search. Memoised on (workload name, model,
    seed) — call {!clear_cache} between runs that reuse names for
    different workloads. *)

val clear_cache : unit -> unit

val engines : (string * Lph_hierarchy.Game.engine) list
(** The two concrete engines, in canonical order. *)

val cert_soundness :
  ?engines:(string * Lph_hierarchy.Game.engine) list ->
  model:Lph_faults.Fault_model.t ->
  seeds:int list ->
  Lph_hierarchy.Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:Lph_hierarchy.Game.universe list ->
  string list
(** Soundness probe on a {e no}-instance: the enumeration oracle
    ({!Lph_hierarchy.Game.solve} over the arbiter's whole-graph
    [accepts]) and every engine must reject the fault-free game, and
    for every seed the model's compiled plan, applied to seeded base
    certificates drawn from the universes, must not make the arbiter
    accept. Returns human-readable violation
    descriptions ([[]] = sound). *)
