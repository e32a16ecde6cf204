(** Seeded violations: deliberately broken specs proving the analyzer
    catches what it claims to catch. [bin/lint.exe --fixtures] must
    exit 1 on {!violations}, and the test suite checks each fixture
    trips exactly the rule named in {!expectations}. The fixtures
    reuse {e correct} machines with wrong declarations wherever
    possible ([Local_algo.with_radius]), so the finding is about the
    claim, not about broken behaviour. *)

val violations : unit -> Registry.t
(** - an under-declared arbiter (a radius-1 machine claiming radius 0:
      pruning with it would be unsound);
    - an arbiter declaring no radius at all (Opaque locality);
    - an over-declared arbiter (radius 2 claimed for a radius-1
      machine: sound, but flagged as loose);
    - two identifier-reading arbiters declared identifier-oblivious:
      the two-factor verifier wrapped in [Local_algo.oblivious], and
      the Fagin-compiled 2-COLORABLE arbiter with its [oblivious]
      field set (its checker stays keyed on identifiers; the lint
      rule probes the claim);
    - a Σ3 sentence claimed at level Σ1;
    - a sentence whose matrix uses an unbounded existential
      first-order quantifier (not LFO);
    - a reduction whose id_radius is below its gather radius + 1;
    - and, for [Lint.run ~optimize:true]: a correct 2-colour verifier
      declaring a 4-bit budget where 1 bit suffices (slack), a
      certification reduction whose transfer function claims budget 0
      (inconsistent with direct search), and a stored optimiser result
      whose UNSAT core was emptied (fails replay). *)

val expectations : (string * Diagnostic.rule * Diagnostic.severity) list
(** For each fixture spec name, the rule it must trip and the expected
    severity (under the default [Lint.run]). *)

val opt_expectations : (string * Diagnostic.rule * Diagnostic.severity) list
(** The fixtures only [Lint.run ~optimize:true] can see: the expected
    [budget/*] rule and severity for each. *)
