(** Graph isomorphism for small graphs (backtracking with degree and
    label pruning). Graph properties are required to be closed under
    isomorphism; tests use this module to check that our deciders and
    reductions respect that closure, and {!Ball_type} uses it to
    confirm that two centred balls share a type. *)

val find : Labeled_graph.t -> Labeled_graph.t -> int array option
(** [find g h] returns a bijection (as an array mapping nodes of [g] to
    nodes of [h]) that preserves labels, edges and non-edges, if one
    exists. Nodes of [g] are matched in BFS order from node 0, each
    against the neighbours of an already-matched neighbour's image. *)

val isomorphic : Labeled_graph.t -> Labeled_graph.t -> bool
