(** A watched-literal CDCL SAT solver (Chaff-style) with an incremental
    interface: clauses can be added between solves, learned clauses and
    saved phases persist, and [solve_with ~assumptions] decides
    satisfiability under a temporary set of forced literals without
    touching the clause database. This is the satisfiability backend
    for SAT-GRAPH, the Cook–Levin cross-checks, the [`Cegar] game
    engine and the certificate-budget optimiser ({!Lph_hierarchy}
    compiles certificate games to integer clauses and re-solves them
    under assumptions selecting the outer players' certificate bits or
    banning over-budget certificates).

    Literals are DIMACS integers: a variable is an [int v >= 1], the
    literal [v] asserts it and [-v] negates it; [0] is not a literal
    and raises [Invalid_argument] wherever a literal is expected. A
    variable exists once a clause or an assumption mentions it, and
    every smaller variable with it. Named variables ({!Cnf}) reach the
    solver only through the one-shot {!solve} and {!satisfiable}.

    The solver's mutable state — watch lists, trail, activities — is
    deliberately not exported; a solver value is only usable through
    the functions below and is NOT safe to share across domains
    without external locking. *)

type t
(** An incremental solver instance. *)

val create : unit -> t

val add_clause : t -> int array -> unit
(** Add a clause permanently. Tautologies are discarded, duplicate
    literals merged, and literals already decided at the root level
    simplified away; adding the empty clause (or a clause whose
    literals are all root-false) makes the instance permanently
    unsatisfiable. May run unit propagation. The array is read, never
    written, so one stored clause can be loaded into any number of
    solvers. *)

val solve_with : ?assumptions:int list -> t -> bool array option
(** [solve_with ~assumptions s] is a satisfying assignment of every
    clause added so far with all [assumptions] literals forced true, or
    [None] if none exists. The model is read by variable: [model.(v)]
    is variable [v]'s value for every [v] the solver has seen (index 0
    is unused and [false]). Assumptions are released afterwards — only
    clauses learned from genuine conflicts are kept, so repeated calls
    with different assumptions are cheap (phase saving steers the
    search back to the previous model). *)

val unsat_core : t -> int list
(** After a {!solve_with} that returned [None]: a subset of the
    assumptions passed to that call whose conjunction with the clause
    database is already unsatisfiable (MiniSat's final-conflict
    analysis over the assumption decisions). The empty list means the
    clause database alone is unsatisfiable. Replaying the core as the
    only assumptions in a fresh solver holding the same clauses must
    answer UNSAT again — the certificate-budget optimiser's
    lower-bound proofs are validated exactly this way. Raises
    [Invalid_argument] if the last solve produced a model or no solve
    has run yet. *)

val root_value : t -> int -> bool option
(** The literal's value if its variable is fixed at decision level 0 —
    i.e. forced by unit propagation alone, independent of any
    assumptions — and [None] otherwise. *)

type stats = {
  decisions : int;
  propagations : int;  (** literals enqueued by unit propagation *)
  conflicts : int;
  learned : int;  (** clauses learned at first-UIP cuts *)
  max_backjump : int;  (** largest number of levels jumped at once *)
  restarts : int;
      (** geometric restarts taken (decision stack abandoned, learned
          clauses and phases kept) *)
}

val stats : t -> stats
(** Cumulative counters since [create]. *)

(** {1 One-shot API over named variables} *)

val solve : Cnf.t -> (Bool_formula.var -> bool) option
(** A satisfying valuation, or [None]. The names are numbered in order
    of first appearance; names outside the CNF map to [false]. *)

val satisfiable : Cnf.t -> bool
