(** A watched-literal CDCL SAT solver (Chaff-style) with an incremental
    interface: clauses can be added between solves, learned clauses and
    saved phases persist, and [solve_with ~assumptions] decides
    satisfiability under a temporary set of forced literals without
    touching the clause database. This is the satisfiability backend
    for SAT-GRAPH, the Cook–Levin cross-checks, the [`Cegar] game
    engine and the certificate-budget optimiser ({!Lph_hierarchy}
    compiles certificate games to CNF and re-solves them under
    assumptions selecting the outer players' certificate bits or
    banning over-budget certificates).

    The solver's mutable state — watch lists, trail, activities — is
    deliberately not exported; a solver value is only usable through
    the functions below and is NOT safe to share across domains
    without external locking. *)

type t
(** An incremental solver instance. *)

val create : unit -> t

val copy : t -> t
(** An independent deep copy: same interned variables, clause database
    (including clauses learned so far), saved phases and activities —
    but clauses added or learned on either side afterwards are
    invisible to the other. This is what lets the CEGAR game engine
    fork a compiled game CNF into a private proposer solver and keep
    feeding it blocking clauses without polluting the shared instance.
    Statistics counters start from zero in the copy. *)

val add_clause : t -> Cnf.clause -> unit
(** Add a clause permanently. Tautologies are discarded, duplicate
    literals merged, and literals already decided at the root level
    simplified away; adding the empty clause (or a clause whose
    literals are all root-false) makes the instance permanently
    unsatisfiable. May run unit propagation. *)

val solve_with : ?assumptions:Cnf.clause -> t -> (Bool_formula.var -> bool) option
(** [solve_with ~assumptions s] is a satisfying valuation of every
    clause added so far with all [assumptions] literals forced true, or
    [None] if none exists. The valuation is total: variables the solver
    never saw map to [false]. Assumptions are released afterwards —
    only clauses learned from genuine conflicts are kept, so repeated
    calls with different assumptions are cheap (phase saving steers the
    search back to the previous model). *)

val unsat_core : t -> Cnf.clause
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

val root_value : t -> Bool_formula.var -> bool option
(** The variable's value if it is fixed at decision level 0 — i.e.
    forced by unit propagation alone, independent of any assumptions —
    and [None] otherwise. *)

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

(** {1 One-shot API} *)

val solve : Cnf.t -> (Bool_formula.var -> bool) option
(** A satisfying valuation (total on the CNF's variables), or [None]. *)

val satisfiable : Cnf.t -> bool
