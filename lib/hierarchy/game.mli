(** The Eve/Adam certificate game (Section 4). Eve (existential) and
    Adam (universal) alternately choose certificate assignments; after
    ℓ moves the arbiter decides. A graph has the Σℓ-property arbitrated
    by M iff Eve wins the game in which she moves first; Πℓ when Adam
    moves first.

    The solver is exact over explicit finite certificate universes:
    either all (r,p)-bounded bit strings up to a cap, or a semantic
    per-node universe (the restrictive-arbiter view of Lemma 8, which
    licenses restricting quantifiers as long as the restrictors are
    locally repairable — the responsibility of the caller).

    Two engines compute the game value, and one oracle checks them.
    The oracle is {!solve} over the arbiter's whole-graph [accepts]: it
    enumerates whole certificate assignments, at a cost of
    [Π_u |universe u|] arbiter runs per level, and shares no ball
    checker, memo or search with the engines. The pruned engine
    ({!solve_pruned}) exploits arbiter {e locality}
    ({!Arbiter.locality}): the final quantifier level is assigned node
    by node in BFS order and a subtree is cut (or, for Adam, a
    rejecting witness returned) as soon as one fully-assigned radius-r
    ball rejects, with ball verdicts read from per-call tables indexed
    by ball type ({!Arbiter.ball_type}) and candidate indices. What
    the search derives from the instance (assignment order, each
    centre's group and members) is memoised per (graph, ball typing,
    candidates) and dies with the graph.
    The CEGAR engine ({!solve_cegar}) compiles the game to CNF
    ({!Game_sat}) and plays every quantifier block as a
    counterexample-guided duel between incremental solvers
    ({!Game_cegar}). Both engines agree with the oracle on every
    input; the pruned one falls back to plain enumeration for
    [Opaque] arbiters, and the CEGAR one to pruned search whenever it
    cannot decide a game. *)

type player = Eve | Adam

val opponent : player -> player

type universe = int -> string list
(** Per-node certificate candidates (node index -> choices). *)

val bitstring_universe : max_len:int -> universe
(** All bit strings of length at most [max_len], for every node. The
    list is built once per [bitstring_universe ~max_len] and every
    node gets that same list, so cache keys over the materialised
    universe compare by pointer. *)

val bounded_universe :
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  Lph_graph.Certificates.bound ->
  cap:int ->
  universe
(** All (r,p)-bounded bit strings per node, additionally capped at
    length [cap]. *)

val of_choices : string list -> universe
(** The same candidate list for every node. *)

val assignments : n:int -> universe -> Lph_graph.Certificates.t Seq.t
(** All certificate assignments over [n] nodes. *)

val solve :
  first:player ->
  n:int ->
  universes:universe list ->
  arbiter:(Lph_graph.Certificates.t list -> bool) ->
  bool
(** Exact game value by plain enumeration: [universes] has one entry
    per level, in move order. With [first = Eve] this computes
    ∃k1 ∀k2 ... : arbiter [k1; k2; ...]. Handed the arbiter's
    whole-graph [accepts], this is the oracle the engines are checked
    against. *)

type engine = [ `Auto | `Pruned | `Cegar ]
(** [`Auto] (the default everywhere) defers to the [LPH_ENGINE]
    environment variable — ["pruned"] or ["cegar"], anything else
    raises [Invalid_argument], unset means pruned — read at each call
    like [LPH_JOBS]. [`Pruned] requests locality-pruned search, which
    falls back to {!solve} on opaque arbiters. [`Cegar] compiles the
    game to CNF ({!Game_sat}) and hands every quantifier block to the
    abstraction-refinement duel of {!Game_cegar}, falling back to
    [`Pruned] when it cannot decide the game. *)

val resolve : engine -> engine
(** Resolve [`Auto] against the [LPH_ENGINE] environment variable (see
    {!type:engine}); concrete engines pass through unchanged. Useful to
    pin the engine once before fanning work out over domains. *)

val solve_pruned :
  first:player ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** Locality-pruned game value; agrees with {!solve} on the same
    arbiter for every input. Earlier levels are enumerated in full;
    the last level is a backtracking search over nodes in BFS order
    that stops descending as soon as a fully-assigned ball's verdict
    is decisive. The search's plan is built once per graph and key —
    the locality, the identifier use, the identifiers unless the
    arbiter is oblivious, and the candidate lists — and never holds a
    verdict or the checker, which each call takes afresh from
    {!Arbiter.ball_checker}. Falls back to {!solve} when the arbiter is
    [Opaque] or carries no per-node verdict function, and when there
    is no level or some slot has no candidate (no assignment exists,
    which enumeration settles at once). *)

val graph_plans : Lph_graph.Labeled_graph.t -> int
(** How many pruned-search plans are memoised for the graph, one per
    (locality, identifier use, identifiers unless oblivious, candidate
    lists) that {!solve_pruned} met on it. A plan holds O(n) words —
    the candidate arrays, the assignment order and each centre's group
    — and dies with the graph; the daemon's cache bound charges it. *)

val solve_cegar :
  first:player ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** CEGAR game value; agrees with every other engine on every input.
    The whole game is run as {!Game_cegar}'s propose/refute/generalise
    loop between two incremental solver instances; when that engine
    reports [None] (opaque arbiter, over-budget compile, empty
    candidate slot, iteration cap) the value comes from
    {!solve_pruned} instead. *)

val sigma_accepts :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool
(** Does the graph satisfy the Σℓ-condition of the given arbiter
    (ℓ = [Arbiter.levels], Eve first)? *)

val pi_accepts :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  bool

val eve_witness :
  ?engine:engine ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:universe list ->
  Lph_graph.Certificates.t option
(** For a 1-level arbiter: a certificate assignment making it accept,
    if one exists (the NLP witness). Pruned search returns the first
    accepting assignment in its BFS order, CEGAR the duel's winning
    move ({!Game_cegar.winning_move}); both may differ from the first
    accepting assignment in {!assignments} order, and both are
    valid. *)
