(** The CEGAR certificate-game engine behind [`Cegar]: the entire
    Σℓ/Πℓ game compiled into a counterexample-guided
    abstraction-refinement duel between incremental CDCL instances,
    instead of enumerating the outer quantifier blocks.

    A {e proposer} — a fork of the {!Game_sat} CNF with the mode
    variable pinned to its player's optimism — proposes an
    outermost-block certificate assignment; the {e refuter} (the shared
    {!Game_sat} instance) searches the remaining blocks for a reply
    that defeats it; each defeat is generalised through the arbiter's
    [Ball r] locality (selectors outside the rejecting node's ball are
    dropped) into a blocking clause on the proposer. Proposals never
    repeat, so the loop terminates; an UNSAT proposer has no unrefuted
    move and loses. Alternation depth ℓ > 2 recurses with fresh forks,
    one level per duel.

    Instances are cached per graph on (arbiter, locality, identifiers,
    universes, first player) in a {!Lph_graph.Graph_memo} store, so
    sweeps re-solve warm proposers — including all blocking clauses
    learned so far — parallel solves of distinct instances never
    serialise each other, and a duel dies with its graph. *)

type t
(** A cached duel: the shared compiled instance plus this first
    player's persistent outermost proposer, learned blocking cubes and
    refinement counters. Safe to share across domains. *)

val solve :
  eve_first:bool ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:(int -> string list) list ->
  bool option
(** The game value with Eve ([eve_first]) or Adam moving first —
    or [None] when this engine cannot (or refuses to) decide the game
    and the caller should fall back: the arbiter is opaque or over the
    [LPH_SAT_BUDGET] compile budget, some (level, node) slot has an
    empty candidate list (enumeration semantics decide such games
    before the arbiter runs), the universe list is empty, or the
    refinement loop overran [LPH_CEGAR_MAX_ITERS]. One-level games run
    the degenerate duel — a single unrefutable proposal on the
    mode-pinned proposer — so their refinement counters ({!stats},
    [iterations] in particular) are recorded like every deeper game's. *)

val instance :
  eve_first:bool ->
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:(int -> string list) list ->
  t option
(** The cached duel instance for a (≥ 1)-level game, building it on
    first use; [None] under the same conditions as {!solve} (except the
    iteration cap, which only strikes during {!value}). *)

val value : t -> bool option
(** Run (or re-run, warm) the refinement loop to the game value — from
    Eve's side, like every engine: an Eve-first game is accepted iff
    Eve wins the duel, an Adam-first game iff Adam {e loses} it.
    [None] if the loop overruns [LPH_CEGAR_MAX_ITERS] — blocking
    clauses learned so far are kept, so a retry with a higher cap
    resumes rather than restarts. *)

type stats = {
  iterations : int;  (** outermost propose/refute rounds *)
  proposals : int;  (** proposals examined, all levels *)
  refutations : int;  (** proposals defeated *)
  cubes : int;  (** blocking clauses learned by refinement *)
  generalised : int;  (** selector slots dropped from cubes by ball locality *)
}

val stats : t -> stats
(** Cumulative refinement counters over the instance's lifetime. *)

val cubes : t -> (int * (int * string) list) list
(** Every blocking cube learned so far, oldest first: the proposal
    level and the (node, certificate) assignments the clause forbids
    re-proposing together. No assignment extending a cube can win the
    blocked player the subgame below it — the property the soundness
    tests check. *)

val winning_move : t -> Lph_graph.Certificates.t option
(** After the first player won the last duel ({!value} = [Some true]
    when [eve_first], [Some false] otherwise): the unrefuted first move
    they ended on — Eve's Σ-witness, or Adam's winning challenge.
    [None] after a first-player loss or an aborted run. *)

val proposer_stats : t -> Lph_boolean.Solver.stats
(** CDCL counters of the outermost proposer fork. *)

val shared_stats : t -> Lph_boolean.Solver.stats
(** CDCL counters of the shared {!Game_sat} instance (the refuter). *)

val table_entries : t -> int
(** Tabulated ball configurations of the underlying compiled CNF. *)
