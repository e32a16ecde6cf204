(** Concrete candidate machines for the lowest hierarchy levels:
    correct LP-deciders, correct NLP-verifiers, and the deliberately
    doomed candidates that the separation experiments of Section 9.1
    dissect. All are local algorithms with polynomial step charges. *)

(** {1 LP deciders (level 0)} *)

val all_selected_decider : Lph_machine.Local_algo.packed
(** Accepts iff the node's own label is "1" (decides ALL-SELECTED). *)

val eulerian_decider : Lph_machine.Local_algo.packed
(** Accepts iff the node's degree is even (decides EULERIAN,
    Proposition 15). *)

val constant_label_decider : Lph_machine.Local_algo.packed
(** Accepts iff all neighbours carry the node's label (decides
    CONSTANT-LABELLING in 3 rounds). *)

val local_two_col_decider : radius:int -> Lph_machine.Local_algo.packed
(** The natural-but-doomed LP candidate for 2-COLORABLE: gather the
    r-ball and accept iff it is 2-colourable. Proposition 21 shows
    every such candidate fails: it cannot distinguish an odd cycle from
    its doubled even cycle. *)

(** {1 NLP verifiers (level 1)} *)

val color_verifier : int -> Lph_machine.Local_algo.packed
(** Verifier for k-COLORABLE: the certificate encodes the node's colour
    in binary; accept iff it is a valid colour differing from all
    neighbours' colours. Correct (sound and complete) — k-COLORABLE is
    in NLP. *)

val color_universe : int -> Game.universe
(** The matching restrictive certificate universe: the binary encodings
    of 0 .. k-1. The list is built once per [color_universe k] and
    every node gets that same list, so cache keys over the
    materialised universe compare by pointer. *)

val exact_counter_verifier : cap:int -> Lph_machine.Local_algo.packed
(** Candidate verifier for NOT-ALL-SELECTED with certificates bounded
    by [cap]: the certificate claims the distance to an unselected
    node. Sound on every graph, but incomplete on cycles longer than
    about [2 * cap] — the bounded-certificate wall that Proposition 23
    erects. *)

val mod_counter_verifier : period:int -> Lph_machine.Local_algo.packed
(** Candidate verifier for NOT-ALL-SELECTED that stays complete on
    arbitrarily long cycles by counting modulo [period] — and is
    therefore unsound, exactly as the pigeonhole argument of
    Proposition 23 predicts: it accepts all-selected cycles whose
    length is a multiple of [period]. *)

(** {1 Σ2 verifiers (level 2)} *)

val robust_two_col_verifier : Lph_machine.Local_algo.packed
(** A two-level arbiter whose Σ2 game value is 2-COLORABLE: Eve claims
    a 2-colouring, Adam challenges with a second one, and a node
    accepts iff Eve's colouring is proper at it and Adam's challenge is
    either improper there or a local flip of Eve's. The universal block
    is semantically inert (two colourings proper at a node agree up to
    flipping), which is the point: engines that enumerate Adam's block
    pay 2^n per Eve claim, the CEGAR engine one UNSAT call — the
    scaling probe behind the `sigma2-2col` benchmarks and the
    [`Cegar]-engine separation sweep
    ({!Separations.sigma2_game_separation}). Certificate universe:
    {!color_universe}[ 2] at both levels. *)

val counter_universe : bound:int -> Game.universe
(** Binary encodings of 0 .. bound-1 (certificate candidates for the
    counter verifiers), one list shared by every node as in
    {!color_universe}. *)

val honest_mod_certs : period:int -> n:int -> Lph_graph.Certificates.t
(** The honest prover's certificates for {!mod_counter_verifier} on the
    cycle of length [n] whose unselected node is node 0:
    node i gets [i mod period]. *)

val sat_graph_verifier : Lph_machine.Local_algo.packed
(** Verifier for SAT-GRAPH (Theorem 19) on Boolean graphs
    ({!Lph_boolean.Boolean_graph}): the certificate claims a valuation
    of the node's own formula variables, one bit per variable in sorted
    variable order; accept iff the formula is satisfied and every
    neighbour's claimed valuation agrees on shared variables. Malformed
    labels and forged certificates reject — they never raise, so
    soundness survives arbitrary certificate tampering. *)

val sat_graph_universe : Lph_boolean.Boolean_graph.t -> Game.universe
(** The matching certificate universe: all bit strings with one bit per
    variable of the node's formula ([ [""] ] for malformed labels). *)

val two_factor_verifier : Lph_machine.Local_algo.packed
(** Verifier for 2-FACTOR (a spanning 2-regular subgraph, i.e. a
    disjoint cycle cover): the certificate concatenates the equal-width
    identifiers of two distinct neighbours, and a node accepts iff both
    are genuine neighbours whose own certificates name it back. The
    certificate side of the HAMILTONIAN reduction targets — a
    Hamiltonian cycle is a 2-factor, and the reduction's pendant
    gadgets kill every 2-factor on NO instances. Completeness requires
    equal-width identifiers ({!Lph_graph.Identifiers.make_global}). *)

val two_factor_universe : Lph_graph.Labeled_graph.t -> Lph_graph.Identifiers.t -> Game.universe
(** The matching universe: one candidate per unordered pair of distinct
    neighbour identifiers (a rejected dummy for nodes of degree < 2). *)
