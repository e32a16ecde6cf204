(** The compilation layer of the SAT-backed game engine: the
    constructive face of the paper's distributed Cook–Levin theorem
    (Theorem 19). A certificate game over explicit finite universes is
    compiled to one integer-literal CNF per (arbiter, locality, graph,
    identifiers, universes) — selector variables with exactly-one
    constraints encode the per-node candidate choices, each row of a
    node's tabulated radius-r ball verdicts becomes one clause fixing
    that node's acceptance variable, and a mode variable switches the
    same instance between "every verifier accepts" (Eve's last move)
    and "some verifier rejects" (Adam's).
    Callers fix outer certificates through {e assumption literals}, so
    every question about a compiled game is an incremental
    {!Lph_boolean.Solver.solve_with} call on the same solver: the CNF
    is built once, and clauses learned under one outer prefix keep
    pruning under all later ones. Two clients share it: the [`Cegar]
    engine ({!Game_cegar}), whose refuter is this instance, and the
    certificate-budget optimiser, which adds budget bans as further
    assumptions. *)

type t
(** A compiled game instance: its clauses, one incremental SAT solver
    loaded with them, and the materialised choice tables. Safe to share
    across domains — solver calls are serialised internally. *)

val compile :
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:(int -> string list) list ->
  t option
(** Compile the full game (all [universes] levels) to CNF. [None] when
    the arbiter is [Opaque], exposes no per-node verdicts, or the total
    ball-table size exceeds the compile budget (default 200000 verifier
    runs; override with [LPH_SAT_BUDGET]) — callers fall back to pruned
    search. Instances are cached per graph on (arbiter name, arbiter
    locality, identifiers, materialised universes), so repeated solves
    and parallel sweeps over the same graph reuse both the CNF and its
    learned clauses, while radius variants of one arbiter (same name,
    different [Ball r]) never share an instance. Each instance is
    compiled once, and dies with its graph. *)

val compile_explain :
  Arbiter.t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  universes:(int -> string list) list ->
  (t, Lph_util.Error.t) result
(** Like {!compile} but the refusal carries its typed reason:
    [Resource_exhausted] with the effective [LPH_SAT_BUDGET] limit when
    the ball tables are over budget, [Protocol_error] when the arbiter
    is opaque or exposes no per-node verdicts. *)

val table_entries : t -> int
(** Total number of tabulated ball configurations (the one-off compile
    cost, in verifier runs). *)

(** {1 Cost accounting}

    Compiled instances live in a {!Lph_graph.Graph_memo} store and die
    with their graph: a process that wants the memory back drops the
    graph, and there is nothing to evict. *)

val graph_table_entries : Lph_graph.Labeled_graph.t -> int
(** Sum of {!table_entries} over the graph's successfully compiled
    instances: the scheduler's per-graph cost estimate. *)

(** {1 CEGAR access}

    The [`Cegar] engine ({!Game_cegar}) drives the same compiled CNF
    from outside: it loads the clauses into a private proposer solver,
    decodes whole levels out of refutation models, and maps rejecting
    nodes back to ball-restricted blocking cubes. Models are
    {!Lph_boolean.Solver.solve_with} arrays, read by variable. *)

val levels : t -> int
(** Number of quantifier levels compiled into the instance. *)

val radius : t -> int
(** The arbiter's declared [Ball r] locality radius — the
    generalisation radius for CEGAR blocking cubes. *)

val candidates : t -> level:int -> node:int -> string list
(** The materialised certificate universe of one (level, node) slot, in
    selector-index order. *)

val selector : t -> level:int -> node:int -> string -> int
(** The selector variable of a (level, node, certificate) choice — as
    a literal, "this slot holds this certificate". Raises
    [Invalid_argument] when the certificate is not in that slot's
    universe. *)

val solve_model : t -> prefix:Lph_graph.Certificates.t list -> eve:bool -> bool array option
(** A last-level assignment (under the outer [prefix], in move order,
    one entry per level except the last) making every node accept
    ([eve:true]) or some node reject ([eve:false]), as a full valuation
    of the instance's variables — or [None] if none exists. Raises
    [Invalid_argument] if a prefix certificate is outside its level's
    universe. *)

val model_level : t -> bool array -> level:int -> Lph_graph.Certificates.t
(** Decode the certificate assignment a model selects at one level. *)

val rejecting_nodes : t -> bool array -> int list
(** The nodes whose acceptance variable is false in a model — under
    [eve:false] the witnesses Adam's refutation rests on. *)

val fork_solver : t -> eve:bool -> Lph_boolean.Solver.t
(** A fresh solver loaded with the instance's {!clauses} and the mode
    variable permanently fixed: [eve:true] keeps only assignments every
    verifier accepts, [eve:false] only those some verifier rejects. The
    fork is independent — clauses added to it never reach the shared
    instance — and, like any {!Lph_boolean.Solver.t}, not domain-safe
    without external locking. *)

val solver_stats : t -> Lph_boolean.Solver.stats
(** Counters of the underlying solver, cumulative over every leaf
    solved on this instance. *)

(** {1 Budget-restricted solving}

    The certificate-budget optimiser ({!Lph_analysis}) decides "does
    the game still accept when every level-[l] certificate is at most
    [b] bits?" without recompiling: the budget is a set of negative
    selector assumptions, and an UNSAT answer yields the
    failed-assumption core that is the machine-checkable lower-bound
    proof. *)

val clauses : t -> int array array
(** Every clause the compilation added, in insertion order: one per
    ball-table row, the exactly-one constraints and the mode clauses.
    The arrays are shared, not copied, and must not be written. Loading
    them into a fresh solver is how CEGAR forks are made and how
    lower-bound proofs are replayed independently of this instance's
    learned clauses. *)

val budget_assumptions : t -> budget:int -> levels:int list -> int list
(** Negative selector literals banning every candidate certificate
    longer than [budget] characters at each of the given levels — the
    assumption form of restricting those universes to the budget.
    Raises [Invalid_argument] on a level outside the instance. *)

val solve_constrained :
  t -> assumptions:int list -> eve:bool -> [ `Model of bool array | `Unsat of int list * int list ]
(** Solve the instance under the mode literal ([eve:true] = every node
    accepts, [eve:false] = some node rejects) plus arbitrary extra
    assumptions — typically {!budget_assumptions}. [`Unsat (core, assumed)]
    carries the failed-assumption core ({!Lph_boolean.Solver.unsat_core})
    and the full assumption list actually passed (mode literal
    included), captured before the lock is released. *)
