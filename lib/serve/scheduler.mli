(** The daemon's batching scheduler. Connection threads {!submit}
    requests; one dispatcher thread drains them in batches, groups each
    batch by {!Protocol.key} (same property, same graph spec) and runs
    the groups in parallel over the shared {!Lph_util.Parallel} domain
    pool — requests within a group sequentially, against one
    materialised (graph, identifiers, arbiter) entry, so the per-graph
    {!Lph_hierarchy.Game_sat} / {!Lph_hierarchy.Game_cegar} compile
    caches and the {!Lph_graph.Neighborhood} memos are shared across
    requests and connections by construction.

    Entries are LRU-bounded by estimated resident bytes
    ([LPH_SERVE_CACHE_MB], default 256): after every batch the touched
    entries are re-costed (graph size plus compiled ball tables) and
    least-recently-used entries are evicted until the estimate is back
    under the bound (the most-recent entry is always kept, so a single
    oversized instance cannot thrash). Evicting an entry drops its
    graph reference; the engines' per-graph data lives in
    {!Lph_graph.Graph_memo} stores and dies with the graph. *)

type t

val create : ?cache_mb:int -> ?queue_cap:int -> unit -> t
(** Start a scheduler (spawns the dispatcher thread, prewarms the
    shared domain pool). [cache_mb] overrides [LPH_SERVE_CACHE_MB];
    [queue_cap] overrides [LPH_SERVE_QUEUE_CAP] (default: unbounded)
    and bounds how many jobs may wait in the queue — submissions beyond
    it are refused with a typed [Overloaded] response. Raises
    [Invalid_argument] when any is non-positive. *)

val submit : ?deadline_ms:int -> t -> Protocol.request -> reply:(Protocol.response -> unit) -> unit
(** Enqueue a request. [reply] is invoked exactly once, from a
    dispatcher-pool thread; it must not block for long and must not
    raise. After {!shutdown}, replies immediately with a
    [Protocol_error] outcome.

    [deadline_ms] (default: the ambient [LPH_SERVE_TIMEOUT_MS], unset
    meaning none) is the request's time budget from submission: a job
    whose deadline has passed when a worker picks it up is answered
    with a typed [Deadline_exceeded] response instead of being run.
    [0] expires immediately — the deterministic handle for tests. A
    full queue never blocks: beyond [queue_cap] the reply is a typed
    [Overloaded] response, so the serve path stays live under load it
    cannot absorb. *)

val shutdown : t -> unit
(** Stop accepting work, finish the batches already queued (every
    submitted request is still answered), and join the dispatcher. *)

type stats = {
  requests : int;
  batches : int;
  cache_hits : int;  (** requests served from a warm (property, graph) entry *)
  cache_misses : int;  (** requests that had to materialise their entry *)
  evictions : int;  (** entries dropped by the LRU bound *)
  entries : int;  (** entries currently resident *)
  overloads : int;  (** submissions refused by the queue cap *)
  expired : int;  (** jobs answered [Deadline_exceeded] unrun *)
}

val stats : t -> stats

val cap_bytes : t -> int
(** The configured LRU bound, in bytes. *)
