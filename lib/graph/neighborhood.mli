(** Distances and r-neighbourhoods (Section 3). [N_r(u)] is the subgraph
    induced by all nodes at distance at most [r] from [u]; it is the unit
    of "locally available information" throughout the paper.

    Distance rows and balls are memoised per graph (graphs are immutable
    after {!Labeled_graph.make}) in a {!Graph_memo} store, so the memo
    dies with its graph; it is safe to use from parallel domains and
    transparent to callers.

    Two regimes, split at [LPH_FULL_ROW_MAX] (default 8192) nodes: small
    graphs cache one full BFS distance row per source; large graphs
    never materialise O(n) rows — balls come from truncated BFS that
    explores only the r-ball (O(sum of ball degrees) per query), cached
    in shard tables keyed by the source's graph segment, each shard
    behind its own mutex. *)

val distances : Labeled_graph.t -> int -> int array
(** BFS distances from a node; unreachable is impossible (graphs are
    connected). The row is computed once per (graph, source) and cached;
    callers must not mutate the returned array. *)

val distance : Labeled_graph.t -> int -> int -> int
(** Single-pair distance. Served from the cached row when one endpoint
    already has one; otherwise runs a BFS that stops as soon as the
    target is reached instead of exploring the whole graph. *)

val ball : Labeled_graph.t -> radius:int -> int -> int list
(** Nodes at distance [<= radius], sorted by node index. Costs
    O(ball) via truncated BFS, never a full-graph sweep. *)

val ball_distances : Labeled_graph.t -> radius:int -> int -> (int * int) list
(** The ball with each member's distance from the source:
    [(v, dist(u, v))] sorted by node index. Same truncated-BFS cost as
    {!ball}; use it when the caller would otherwise re-derive distances
    from a full row. *)

val touched : Labeled_graph.t -> radius:int -> int list -> int list
(** [touched g ~radius changed]: the nodes whose radius-[radius] ball
    intersects [changed] — exactly the verifiers a radius-[radius]
    arbiter must re-run after the certificates of [changed] mutate
    (the incremental-evaluation dirty set). Sorted by node index. *)

val eccentricity : Labeled_graph.t -> int -> int
val diameter : Labeled_graph.t -> int

type induced = {
  subgraph : Labeled_graph.t;
  to_sub : int -> int option;  (** original node -> subgraph node *)
  of_sub : int -> int;  (** subgraph node -> original node *)
}

val induced : Labeled_graph.t -> int list -> induced
(** Induced subgraph on a set of nodes (must be non-empty and induce a
    connected subgraph). *)

val r_neighbourhood : Labeled_graph.t -> radius:int -> int -> induced
(** [N_r(u)] with its node correspondence. The ball around a node always
    induces a connected subgraph. *)

val ball_information : Labeled_graph.t -> ids:string array -> radius:int -> int -> int
(** The quantity the paper's (r,p)-bounds are measured against:
    [sum over v in N_r(u) of 1 + len(label v) + len(id v)]. *)
