(** Centred ball types. Two induced balls [N_r(u)] and [N_r(v)] have
    the same type when an isomorphism maps one onto the other, sends
    [u] to [v] and preserves labels — and identifiers, when the caller
    makes them part of the type. A verifier that reads no identifiers
    gives the same verdict on balls of one type carrying the same
    certificates (the table view behind LCLs, and identifier-free local
    decision), so a ball checker needs one verdict per type and
    certificate pattern rather than one per centre.

    A registry files balls under numbered types along one of two paths.
    A radius-1 ball in which no two neighbours are adjacent is a star,
    typed straight from the centre's adjacency row: the centre's code
    and its neighbours' codes in sorted order (distance, label and,
    when given, identifier) are a complete invariant, and that sorted
    order is the canonical one. Every other ball is bucketed on a cheap
    invariant (edge count and the sorted multiset of (distance to the
    centre, label, identifier, degree) over the ball) and confirmed
    with {!Isomorphism.find} against each type's representative. A
    centre-fixing isomorphism preserves distances to the centre, so the
    nodes within any smaller radius correspond too, and the
    representative's order on them is carried onto every ball of its
    type. Both paths draw numbers from one counter. *)

type registry
(** Numbered types with one representative ball each. Safe to share
    across domains. *)

val registry : unit -> registry

val classify :
  registry ->
  Labeled_graph.t ->
  ids:Identifiers.t option ->
  radius:int ->
  keep:int ->
  int ->
  int * int array
(** [classify reg g ~ids ~radius ~keep u] files [N_radius(u)] and
    returns its type's number with the nodes of [N_keep(u)]
    ([keep <= radius]) in the type's canonical order. With [ids =
    Some ids], identifiers are part of the type. Equal numbers from one
    registry imply that the two balls are isomorphic by a map that
    fixes the centres, preserves labels (and identifiers, if given) and
    carries one returned order onto the other. A star costs
    O(Σ_{v ∈ N(u)} deg v · log deg u) to recognise plus a sort of the
    neighbour codes; any other ball O(|ball| log |ball|) plus one
    isomorphism test per representative in its bucket. Numbers are
    never reused. *)

val clear : registry -> unit
(** Forget every type, bounding the registry's memory. Later balls get
    fresh numbers, so numbers handed out before stay sound. *)
