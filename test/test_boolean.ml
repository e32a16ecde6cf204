open Lph_core
open Helpers
module BF = Bool_formula

let env_of list v = List.mem v list

let formula_tests =
  [
    quick "eval" (fun () ->
        let f = BF.And (BF.Var "p", BF.Or (BF.Not (BF.Var "q"), BF.Const false)) in
        check_bool "p=t q=f" true (BF.eval (env_of [ "p" ]) f);
        check_bool "p=t q=t" false (BF.eval (env_of [ "p"; "q" ]) f));
    quick "vars sorted distinct" (fun () ->
        let f = BF.And (BF.Var "q", BF.And (BF.Var "p", BF.Var "q")) in
        Alcotest.(check (list string)) "vars" [ "p"; "q" ] (BF.vars f));
    quick "satisfiable" (fun () ->
        check_bool "sat" true (BF.satisfiable (BF.Or (BF.Var "p", BF.Not (BF.Var "p"))));
        check_bool "unsat" false (BF.satisfiable (BF.And (BF.Var "p", BF.Not (BF.Var "p"))));
        check_bool "const" false (BF.satisfiable (BF.Const false)));
    quick "label encoding examples" (fun () ->
        let g = BF.implies (BF.Var "a#b") (BF.iff (BF.Const true) (BF.Var "")) in
        check_bool "bit string" true (Bitstring.is_bitstring (BF.to_label g));
        check_bool "roundtrip" true (BF.of_label (BF.to_label g) = g));
    qcheck ~count:200 "label roundtrip" (arb_bool_formula ()) (fun f ->
        BF.of_label (BF.to_label f) = f);
    qcheck ~count:100 "rename then eval" (arb_bool_formula ()) (fun f ->
        let renamed = BF.rename (fun v -> v ^ "!") f in
        BF.eval (fun v -> String.length v mod 2 = 0) f
        = BF.eval (fun v -> String.length v mod 2 = 1) renamed);
  ]

let cnf_tests =
  [
    quick "eval / to_formula" (fun () ->
        let cnf = [ [ Cnf.pos "p"; Cnf.neg "q" ]; [ Cnf.pos "q" ] ] in
        check_bool "pq" true (Cnf.eval (env_of [ "p"; "q" ]) cnf);
        check_bool "q only" false (Cnf.eval (env_of [ "q" ]) cnf);
        check_bool "agree with formula" true
          (BF.eval (env_of [ "p"; "q" ]) (Cnf.to_formula cnf)
          = Cnf.eval (env_of [ "p"; "q" ]) cnf));
    quick "is_3cnf" (fun () ->
        check_bool "yes" true (Cnf.is_3cnf [ [ Cnf.pos "a"; Cnf.neg "b"; Cnf.pos "c" ] ]);
        check_bool "no" false
          (Cnf.is_3cnf [ [ Cnf.pos "a"; Cnf.neg "b"; Cnf.pos "c"; Cnf.pos "d" ] ]));
    quick "of_formula" (fun () ->
        let f = BF.And (BF.Or (BF.Var "a", BF.Not (BF.Var "b")), BF.Var "c") in
        match Cnf.of_formula f with
        | None -> Alcotest.fail "CNF shape"
        | Some cnf ->
            check_int "clauses" 2 (List.length cnf);
            check_bool "not cnf" true (Cnf.of_formula (BF.Not (BF.And (BF.Var "a", BF.Var "b"))) = None));
  ]

let tseytin_tests =
  [
    quick "produces 3cnf" (fun () ->
        let f = BF.iff (BF.Var "p") (BF.And (BF.Var "q", BF.Not (BF.Var "r"))) in
        let cnf = Tseytin.transform ~fresh_prefix:"t" f in
        check_bool "3cnf" true (Cnf.is_3cnf cnf));
    quick "reserved prefix rejected" (fun () ->
        Alcotest.check_raises "reserved"
          (Invalid_argument "Tseytin.transform: input uses a reserved fresh variable") (fun () ->
            ignore (Tseytin.transform ~fresh_prefix:"t" (BF.Var "t.1"))));
    qcheck ~count:150 "equisatisfiable with the input" (arb_bool_formula ()) (fun f ->
        BF.satisfiable f = Sat_solver.satisfiable (Tseytin.transform ~fresh_prefix:"aux" f));
    qcheck ~count:100 "satisfying valuations restrict" (arb_bool_formula ~depth:3 ()) (fun f ->
        match Sat_solver.solve (Tseytin.transform ~fresh_prefix:"aux" f) with
        | None -> not (BF.satisfiable f)
        | Some v -> BF.eval v f);
  ]

let solver_tests =
  [
    quick "simple instances" (fun () ->
        check_bool "unit" true (Sat_solver.satisfiable [ [ Cnf.pos "a" ] ]);
        check_bool "conflict" false (Sat_solver.satisfiable [ [ Cnf.pos "a" ]; [ Cnf.neg "a" ] ]);
        check_bool "empty cnf" true (Sat_solver.satisfiable []);
        check_bool "empty clause" false (Sat_solver.satisfiable [ [] ]));
    quick "propagation chain" (fun () ->
        let cnf =
          [
            [ Cnf.pos "a" ];
            [ Cnf.neg "a"; Cnf.pos "b" ];
            [ Cnf.neg "b"; Cnf.pos "c" ];
            [ Cnf.neg "c"; Cnf.neg "a" ];
          ]
        in
        check_bool "unsat by chain" false (Sat_solver.satisfiable cnf));
    quick "pigeonhole 3 into 2" (fun () ->
        (* pigeon i in hole j: variable p_i_j *)
        let p i j = Printf.sprintf "p%d%d" i j in
        let cnf =
          List.init 3 (fun i -> [ Cnf.pos (p i 0); Cnf.pos (p i 1) ])
          @ List.concat_map
              (fun j ->
                [
                  [ Cnf.neg (p 0 j); Cnf.neg (p 1 j) ];
                  [ Cnf.neg (p 0 j); Cnf.neg (p 2 j) ];
                  [ Cnf.neg (p 1 j); Cnf.neg (p 2 j) ];
                ])
              [ 0; 1 ]
        in
        check_bool "unsat" false (Sat_solver.satisfiable cnf));
    qcheck ~count:200 "DPLL agrees with brute force" (arb_bool_formula ()) (fun f ->
        match Cnf.of_formula f with
        | Some cnf -> Sat_solver.satisfiable cnf = BF.satisfiable (Cnf.to_formula cnf)
        | None ->
            (* convert via Tseytin and compare satisfiability *)
            Sat_solver.satisfiable (Tseytin.transform ~fresh_prefix:"z" f) = BF.satisfiable f);
    qcheck ~count:100 "solver models are real models" (arb_bool_formula ~depth:3 ()) (fun f ->
        match Cnf.of_formula (BF.Or (f, BF.Var "fallback")) with
        | Some cnf -> (
            match Sat_solver.solve cnf with Some v -> Cnf.eval v cnf | None -> true)
        | None -> true);
  ]

(* The incremental API speaks DIMACS integers. [number cnf] numbers a
   named CNF by hand, in order of first appearance. *)
let number cnf =
  let ids = Hashtbl.create 16 in
  let var name =
    match Hashtbl.find_opt ids name with
    | Some v -> v
    | None ->
        let v = Hashtbl.length ids + 1 in
        Hashtbl.add ids name v;
        v
  in
  let lit (l : Cnf.literal) = if l.Cnf.positive then var l.Cnf.var else -var l.Cnf.var in
  let clauses = List.map (fun c -> Array.of_list (List.map lit c)) cnf in
  (clauses, lit)

(* the first variables of a CNF, assumed with the given phases *)
let phase_assumptions cnf lit phases =
  let vars = List.filteri (fun i _ -> i < List.length phases) (Cnf.vars cnf) in
  List.map2
    (fun v positive -> lit (if positive then Cnf.pos v else Cnf.neg v))
    vars
    (List.filteri (fun i _ -> i < List.length vars) phases)

let loaded clauses =
  let s = Sat_solver.create () in
  List.iter (Sat_solver.add_clause s) clauses;
  s

let cdcl_tests =
  let a = 1 and b = 2 and c = 3 and d = 4 in
  [
    quick "unit propagation fixes root values" (fun () ->
        let s = Sat_solver.create () in
        Sat_solver.add_clause s [| -a; b |];
        Sat_solver.add_clause s [| -b; c |];
        check_bool "nothing forced yet" true (Sat_solver.root_value s b = None);
        Sat_solver.add_clause s [| a |];
        check_bool "a forced" true (Sat_solver.root_value s a = Some true);
        check_bool "b propagated" true (Sat_solver.root_value s b = Some true);
        check_bool "c propagated" true (Sat_solver.root_value s c = Some true);
        check_bool "negation read as false" true (Sat_solver.root_value s (-c) = Some false);
        check_bool "unseen var unknown" true (Sat_solver.root_value s d = None);
        check_bool "propagations counted" true ((Sat_solver.stats s).propagations >= 2);
        check_bool "no decisions taken" true ((Sat_solver.stats s).decisions = 0));
    quick "conflict analysis backjumps over an irrelevant level" (fun () ->
        (* assuming a, b, c in that order: d is propagated and refuted
           purely from a and c, so the learned clause must jump the
           b level (level 2) in one step *)
        let s = Sat_solver.create () in
        Sat_solver.add_clause s [| -a; -c; d |];
        Sat_solver.add_clause s [| -a; -c; -d |];
        check_bool "a,b,c contradictory" true
          (Sat_solver.solve_with ~assumptions:[ a; b; c ] s = None);
        check_bool "jumped at least two levels" true ((Sat_solver.stats s).max_backjump >= 2);
        check_bool "learned a clause" true ((Sat_solver.stats s).learned >= 1);
        (* the clause database is untouched: other assumption sets
           still satisfiable on the same instance *)
        (match Sat_solver.solve_with ~assumptions:[ a; b ] s with
        | None -> Alcotest.fail "a,b should be satisfiable"
        | Some v -> check_bool "model refutes c" false v.(c));
        match Sat_solver.solve_with ~assumptions:[ c ] s with
        | None -> Alcotest.fail "c alone should be satisfiable"
        | Some v -> check_bool "model refutes a" false v.(a));
    quick "assumptions do not persist" (fun () ->
        let p = 1 and q = 2 in
        let s = Sat_solver.create () in
        Sat_solver.add_clause s [| p; q |];
        check_bool "p assumable" true
          (match Sat_solver.solve_with ~assumptions:[ p; -q ] s with
          | Some v -> v.(p) && not v.(q)
          | None -> false);
        check_bool "opposite assumption next call" true
          (match Sat_solver.solve_with ~assumptions:[ -p ] s with
          | Some v -> (not v.(p)) && v.(q)
          | None -> false);
        check_bool "p still open at root" true (Sat_solver.root_value s p = None));
    quick "clauses added between solves take effect" (fun () ->
        let x = 1 and y = 2 and z = 3 in
        let s = Sat_solver.create () in
        Sat_solver.add_clause s [| x; y |];
        check_bool "sat" true (Sat_solver.solve_with s <> None);
        Sat_solver.add_clause s [| -x |];
        check_bool "still sat via y" true
          (match Sat_solver.solve_with s with Some v -> v.(y) | None -> false);
        Sat_solver.add_clause s [| -y |];
        check_bool "now unsat" true (Sat_solver.solve_with s = None);
        check_bool "permanently unsat" true (Sat_solver.solve_with ~assumptions:[ z ] s = None));
    quick "assumption on a fresh variable" (fun () ->
        let s = Sat_solver.create () in
        check_bool "forced true in the model" true
          (match Sat_solver.solve_with ~assumptions:[ 7 ] s with
          | Some v -> Array.length v = 8 && v.(7)
          | None -> false));
    qcheck ~count:100 "assumption solving agrees with clause addition"
      QCheck.(pair (arb_bool_formula ~depth:3 ()) (small_list bool))
      (fun (f, phases) ->
        (* solving under assumptions == satisfiability of the CNF with
           the assumptions added as unit clauses *)
        let cnf = Tseytin.transform ~fresh_prefix:"aux" f in
        let clauses, lit = number cnf in
        let assumptions = phase_assumptions cnf lit phases in
        let incremental = Sat_solver.solve_with ~assumptions (loaded clauses) <> None in
        let oneshot =
          Sat_solver.solve_with (loaded (List.map (fun l -> [| l |]) assumptions @ clauses)) <> None
        in
        incremental = oneshot);
    qcheck ~count:200 "integer and named APIs agree with brute force" (arb_bool_formula ())
      (fun f ->
        (* the same CNF three ways: the named one-shot solver, the
           integer API on a hand numbering, and the truth table of the
           (equisatisfiable) input formula *)
        let cnf =
          match Cnf.of_formula f with
          | Some cnf -> cnf
          | None -> Tseytin.transform ~fresh_prefix:"z" f
        in
        let clauses, _ = number cnf in
        let brute = BF.satisfiable f in
        (match Sat_solver.solve cnf with
        | None -> not brute
        | Some v -> brute && Cnf.eval v cnf)
        &&
        match Sat_solver.solve_with (loaded clauses) with
        | None -> not brute
        | Some model ->
            brute
            && List.for_all
                 (Array.exists (fun l -> if l > 0 then model.(l) else not model.(-l)))
                 clauses);
    quick "loading a stored clause leaves it unchanged" (fun () ->
        (* CEGAR forks and proof replays load one clause store into
           many solvers: no solver may write the arrays it was given *)
        let store = [| [| 3; -1; 2; 3 |]; [| -2; -3 |]; [| 1; 2 |]; [| -1; 1; 4 |] |] in
        let snapshot = Array.map Array.copy store in
        let s1 = Sat_solver.create () and s2 = Sat_solver.create () in
        Array.iter (Sat_solver.add_clause s1) store;
        ignore (Sat_solver.solve_with ~assumptions:[ -3 ] s1);
        Array.iter (Sat_solver.add_clause s2) store;
        ignore (Sat_solver.solve_with ~assumptions:[ 3; 1 ] s2);
        check_bool "store unchanged" true (store = snapshot);
        check_bool "both solvers answer alike" true
          (List.for_all
             (fun assumptions ->
               Sat_solver.solve_with ~assumptions s1 <> None
               = (Sat_solver.solve_with ~assumptions s2 <> None))
             [ []; [ 3 ]; [ -1; -2 ]; [ 1; 3 ] ]));
    quick "literal 0 is rejected" (fun () ->
        let s = Sat_solver.create () in
        let rejects what f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument _ -> ()
        in
        rejects "add_clause" (fun () -> Sat_solver.add_clause s [| 1; 0 |]);
        rejects "assumption" (fun () -> ignore (Sat_solver.solve_with ~assumptions:[ 0 ] s));
        rejects "root_value" (fun () -> ignore (Sat_solver.root_value s 0)));
    quick "restarts fire on a hard instance without changing the verdict" (fun () ->
        let var i h = Printf.sprintf "p%d_%d" i h in
        let pigeonhole ~pigeons ~holes =
          List.init pigeons (fun i -> List.init holes (fun h -> Cnf.pos (var i h)))
          @ List.concat_map
              (fun h ->
                List.concat_map
                  (fun i ->
                    List.filter_map
                      (fun j -> if j > i then Some [ Cnf.neg (var i h); Cnf.neg (var j h) ] else None)
                      (List.init pigeons Fun.id))
                  (List.init pigeons Fun.id))
              (List.init holes Fun.id)
        in
        let s = loaded (fst (number (pigeonhole ~pigeons:7 ~holes:6))) in
        check_bool "7 pigeons, 6 holes: unsat" true (Sat_solver.solve_with s = None);
        let st = Sat_solver.stats s in
        check_bool "enough conflicts to restart" true (st.conflicts > 100);
        check_bool "restarted at least once" true (st.restarts >= 1);
        let sat_instance = pigeonhole ~pigeons:6 ~holes:6 in
        let clauses, lit = number sat_instance in
        match Sat_solver.solve_with (loaded clauses) with
        | None -> Alcotest.fail "6 pigeons fit 6 holes"
        | Some v ->
            check_bool "model is real" true
              (Cnf.eval (fun name -> v.(lit (Cnf.pos name))) sat_instance));
  ]

let unsat_core_tests =
  let a = 1 and b = 2 and c = 3 and d = 4 in
  [
    quick "core names only the relevant assumptions" (fun () ->
        (* a forces c which is banned; d is irrelevant and must not
           pollute the core *)
        let s = loaded [ [| -a; b |]; [| -b; c |]; [| -c |] ] in
        check_bool "unsat under a, d" true (Sat_solver.solve_with ~assumptions:[ a; d ] s = None);
        let core = Sat_solver.unsat_core s in
        check_bool "a in core" true (List.mem a core);
        check_bool "d not in core" false (List.mem d core);
        check_bool "core within assumptions" true
          (List.for_all (fun l -> List.mem l [ a; d ]) core));
    quick "core replays to unsat in a fresh solver" (fun () ->
        let clauses = [ [| -a; b |]; [| -b; c |]; [| -c |] ] in
        let s = loaded clauses in
        check_bool "unsat" true (Sat_solver.solve_with ~assumptions:[ a ] s = None);
        let core = Sat_solver.unsat_core s in
        check_bool "replay unsat" true
          (Sat_solver.solve_with ~assumptions:core (loaded clauses) = None));
    quick "root-level unsat yields an empty core" (fun () ->
        let x = 1 and y = 2 in
        let s = loaded [ [| x |]; [| -x |] ] in
        check_bool "unsat without assumptions" true
          (Sat_solver.solve_with ~assumptions:[ y ] s = None);
        check_bool "empty core" true (Sat_solver.unsat_core s = []));
    quick "core unavailable after a satisfiable solve" (fun () ->
        let s = loaded [ [| a; b |] ] in
        check_bool "sat" true (Sat_solver.solve_with ~assumptions:[ a ] s <> None);
        match Sat_solver.unsat_core s with
        | _ -> Alcotest.fail "unsat_core after SAT must raise"
        | exception Invalid_argument _ -> ());
    qcheck ~count:100 "cores are subsets of the assumptions and replay"
      QCheck.(pair (arb_bool_formula ~depth:3 ()) (small_list bool))
      (fun (f, phases) ->
        let cnf = Tseytin.transform ~fresh_prefix:"aux" f in
        let clauses, lit = number cnf in
        let assumptions = phase_assumptions cnf lit phases in
        let s = loaded clauses in
        match Sat_solver.solve_with ~assumptions s with
        | Some _ -> true
        | None ->
            let core = Sat_solver.unsat_core s in
            List.for_all (fun l -> List.mem l assumptions) core
            && Sat_solver.solve_with ~assumptions:core (loaded clauses) = None);
  ]

let boolean_graph_tests =
  let p = BF.Var "p" and q = BF.Var "q" in
  [
    quick "satisfiability with shared variables" (fun () ->
        let bg = Boolean_graph.make (Generators.path 2) [| BF.Or (p, q); BF.Not p |] in
        check_bool "sat" true (Boolean_graph.satisfiable bg);
        let bg2 = Boolean_graph.make (Generators.path 2) [| BF.And (p, q); BF.Not p |] in
        check_bool "unsat" false (Boolean_graph.satisfiable bg2));
    quick "non-adjacent nodes may disagree" (fun () ->
        (* p at node 0 and p at node 2 are different instances: the
           middle node does not mention p, so no constraint links them *)
        let bg = Boolean_graph.make (Generators.path 3) [| p; BF.Const true; BF.Not p |] in
        check_bool "sat" true (Boolean_graph.satisfiable bg));
    quick "adjacent chain forces propagation" (fun () ->
        let bg = Boolean_graph.make (Generators.path 3) [| p; BF.iff p q; BF.Not q |] in
        check_bool "unsat" false (Boolean_graph.satisfiable bg));
    quick "sat restriction to NODE" (fun () ->
        check_bool "sat" true (Boolean_graph.satisfiable (Boolean_graph.sat (BF.Var "x")));
        check_bool "unsat" false
          (Boolean_graph.satisfiable (Boolean_graph.sat (BF.And (BF.Var "x", BF.Not (BF.Var "x"))))));
    quick "is_3cnf_graph" (fun () ->
        let cnf_formula = BF.And (BF.Or (p, BF.Not q), q) in
        let bg = Boolean_graph.make (Generators.path 2) [| cnf_formula; p |] in
        check_bool "yes" true (Boolean_graph.is_3cnf_graph bg);
        let bg2 = Boolean_graph.make (Generators.path 2) [| BF.Not (BF.And (p, q)); p |] in
        check_bool "no" false (Boolean_graph.is_3cnf_graph bg2));
    quick "checkable_locally" (fun () ->
        let bg = Boolean_graph.make (Generators.path 2) [| p; BF.Not p |] in
        check_bool "inconsistent valuations caught" false
          (Boolean_graph.checkable_locally bg ~valuations:(fun u _ -> u = 0));
        let bg2 = Boolean_graph.make (Generators.path 2) [| p; BF.Not q |] in
        check_bool "disjoint vars fine" true
          (Boolean_graph.checkable_locally bg2 ~valuations:(fun u _ -> u = 0)));
    qcheck ~count:40 "DPLL path agrees with brute force"
      QCheck.(pair (arb_bool_formula ~depth:3 ()) (arb_bool_formula ~depth:3 ()))
      (fun (f, g) ->
        let bg = Boolean_graph.make (Generators.path 2) [| f; g |] in
        Boolean_graph.satisfiable bg = Boolean_graph.satisfiable_brute bg);
    qcheck ~count:25 "DPLL triangle agrees with brute force"
      QCheck.(triple (arb_bool_formula ~depth:2 ()) (arb_bool_formula ~depth:2 ()) (arb_bool_formula ~depth:2 ()))
      (fun (f, g, h) ->
        let bg = Boolean_graph.make (Generators.cycle 3) [| f; g; h |] in
        Boolean_graph.satisfiable bg = Boolean_graph.satisfiable_brute bg);
  ]

let suites =
  [
    ("boolean:formula", formula_tests);
    ("boolean:cnf", cnf_tests);
    ("boolean:tseytin", tseytin_tests);
    ("boolean:solver", solver_tests);
    ("boolean:cdcl", cdcl_tests);
    ("boolean:unsat-core", unsat_core_tests);
    ("boolean:graph", boolean_graph_tests);
  ]
