(** Distances and r-neighbourhoods (Section 3). [N_r(u)] is the subgraph
    induced by all nodes at distance at most [r] from [u]; it is the unit
    of "locally available information" throughout the paper.

    Balls and distance rows are memoised per graph (graphs are
    immutable after {!Labeled_graph.make}) in a {!Graph_memo} store, so
    the memo dies with its graph; it is safe to use from parallel
    domains and transparent to callers. Balls come from truncated BFS
    that explores only the r-ball (O(sum of ball degrees) per query),
    one table per graph keyed by (radius, source); whole O(n) distance
    rows are kept for at most a few sources at a time. *)

val distances : Labeled_graph.t -> int -> int array
(** BFS distances from a node; unreachable is impossible (graphs are
    connected). The row is cached in a small bounded memo per graph;
    callers must not mutate the returned array. *)

val distance : Labeled_graph.t -> int -> int -> int
(** Single-pair distance: a lookup in [u]'s {!distances} row. *)

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
