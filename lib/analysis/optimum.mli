(** The certificate-budget optimiser: per-(arbiter, graph-family)
    minimal-certificate search, the Feuilloley–Paul–Paz programme run
    on the shipped specs. A Σℓ certificate game is monotone in the
    budget of Eve's levels — restricting her universes to certificates
    of at most [b] characters only shrinks her strategy space — so the
    minimum budget at which the game still accepts is found by binary
    search, each candidate budget decided by a game engine on the
    budget-restricted universes and the reported boundary cross-checked
    by a second, independent engine.

    Lower bounds are {e machine-checkable}: rejection at budget [b] is
    witnessed by an UNSAT answer of the compiled game CNF under the
    selector assumptions banning over-budget candidates (with Adam's
    levels relaxed to existential, which only weakens the claim being
    refuted — sound for lower bounds, and exact at one level). The
    failed-assumption core ({!Lph_boolean.Solver.unsat_core}) plus the
    compiled clauses form a proof object that {!replay} re-validates
    in a fresh solver, independent of the searching instance. *)

(** {1 Graph families} *)

type family = {
  fam_name : string;
  build : int -> Lph_graph.Labeled_graph.t;
      (** size parameter -> instance (sizes are clamped to the family's
          minimum; parity families round to the right parity) *)
}

val families : family list
(** [cycle], [even-cycle], [odd-cycle], [marked-cycle] (node 0
    labelled "0", the rest "1" — the counter verifiers' domain),
    [torus] (√n × √n), [expander] (seeded, 2 Hamiltonian cycles). *)

val family : string -> family option

(** {1 Proof objects} *)

type core_proof = {
  p_budget : int;  (** the refuted budget *)
  core : int list;  (** failed-assumption subset *)
  p_assumptions : int list;  (** what the search assumed *)
  p_clauses : int array array;
      (** the compiled game's clause store ({!Lph_hierarchy.Game_sat.clauses}),
          shared with the instance, not copied *)
}

type proof =
  | Core of core_proof
      (** UNSAT core at the refuted budget, replayable via {!replay} *)
  | Refuted_by_game of int
      (** a multi-level game rejected the budget but the all-existential
          relaxation was satisfiable: no core exists, the engines'
          agreement is the only witness *)
  | Floor
      (** nothing below to refute: the optimum is 0 (or the arbiter has
          no certificate levels at all) *)

val replay : core_proof -> bool
(** Load [p_clauses] into a fresh solver and solve under [core] alone:
    [true] iff the answer is UNSAT again — the proof stands on the
    clauses, not on the searching solver's learned state. *)

val core_subset : core_proof -> bool
(** Is every core literal among the recorded assumptions? *)

val proof_size : proof -> int option
(** Number of core literals, for [Core] proofs. *)

(** {1 Search} *)

type verdict =
  | Optimum of { bits : int; proof : proof }
      (** accepted at [bits], refuted at [bits - 1] (witness in
          [proof]) *)
  | Rejected of { max_budget : int; proof : proof }
      (** rejected at every budget up to [max_budget] *)
  | Unsupported of string
      (** no certificate universes declared, or compilation refused
          (over [LPH_SAT_BUDGET], opaque arbiter) *)

type result = {
  r_spec : string;
  r_family : string;
  r_size : int;
  r_verdict : verdict;
  r_declared : int option;
      (** the spec's declared budget on this instance: the (r,p)-bound
          when the arbiter carries one, else the longest candidate in
          its universes; [None] for level-0 deciders *)
  r_engines_agree : bool;
      (** the leading engine and its independent checker ([`Pruned]
          when [`Cegar] leads, [`Cegar] otherwise) answered identically
          at the optimum and at the refuted budget below it *)
  r_search_ms : float;  (** CPU time spent by this search *)
  r_probes : int;  (** budget decisions made by the primary engine *)
}

val verdict_bits : verdict -> int option
(** [Some bits] for [Optimum], [None] otherwise. *)

val verdict_string : verdict -> string
(** ["optimum"], ["rejected"] or ["unsupported"]. *)

val search :
  ?engine:Lph_hierarchy.Game.engine ->
  name:string ->
  arbiter:Lph_hierarchy.Arbiter.t ->
  universes:
    (Lph_graph.Labeled_graph.t ->
    Lph_graph.Identifiers.t ->
    Lph_hierarchy.Game.universe list)
    option ->
  family:family ->
  size:int ->
  unit ->
  result
(** Minimal-certificate search for one spec on one family instance
    (identifiers: {!Lph_graph.Identifiers.make_global}). The primary
    engine is [engine] resolved against [LPH_ENGINE] (pruned when
    unset); [`Pruned] cross-checks every reported boundary when the
    primary is [`Cegar], and [`Cegar] does otherwise — the checker
    shares no compiled instance with the engine it checks. Results are
    memoised per (spec, family, node count of the built graph, engine),
    so sizes that build the same graph share one result and a repeated
    call costs only the build. *)

val search_graph :
  ?engine:Lph_hierarchy.Game.engine ->
  name:string ->
  arbiter:Lph_hierarchy.Arbiter.t ->
  universes:
    (Lph_graph.Labeled_graph.t ->
    Lph_graph.Identifiers.t ->
    Lph_hierarchy.Game.universe list)
    option ->
  label:string ->
  Lph_graph.Labeled_graph.t ->
  result
(** Like {!search} on an explicit instance ([label] stands in for the
    family name in the result) — what the certification reductions use
    on reduction images. Results are memoised per graph on (spec,
    label, engine) and die with the graph, so two graphs of one size
    never share a result. *)
