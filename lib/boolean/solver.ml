(* A watched-literal CDCL solver (Chaff-style: Moskewicz et al., DAC
   2001), replacing the earlier map-based DPLL. The design is the
   MiniSat core reduced to what the game backend needs:

   - two watched literals per clause, so only clauses watching a
     literal that just became false are visited during propagation;
   - conflict analysis to the first unique implication point, with the
     learned clause driving a non-chronological backjump;
   - VSIDS-style branching: per-variable activities bumped on conflict
     participation and decayed geometrically, broken by a linear scan
     (instance sizes here are hundreds of variables, not millions);
   - phase saving, so consecutive [solve_with] calls under different
     assumptions revisit similar assignments cheaply;
   - an incremental interface: clauses can be added between solves and
     learned clauses are kept, which is what makes assumption-based
     re-solving of the game CNF fast.

   Literals are DIMACS integers: variable [v >= 1] is the literal [v],
   its negation [-v]. Internally a literal is [2*v + (0 if positive
   else 1)], and slot 0 of every per-variable array is an unused
   dummy. Variables come into existence when a clause or an assumption
   first mentions them. All mutable state (watch lists, trail,
   activities) stays private to this module; the interface only
   exposes solving and statistics. *)

type cls = { lits : int array }

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  max_backjump : int;
  restarts : int;
}

type t = {
  mutable nvars : int;  (* variables are 1 .. nvars *)
  (* per-variable state, capacity [Array.length assign] *)
  mutable assign : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : cls option array;
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;  (* conflict-analysis scratch *)
  mutable watches : cls list array;  (* literal -> watching clauses *)
  mutable trail : int array;
  mutable trail_n : int;
  mutable trail_lim : int array;  (* decision level -> trail mark *)
  mutable dlevel : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable root_conflict : bool;
  mutable last_core : int list option;
      (* failed-assumption subset of the last UNSAT [solve_with];
         [None] after a SAT answer (or before any solve) *)
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_learned : int;
  mutable s_max_backjump : int;
  mutable s_restarts : int;
}

let create () =
  {
    nvars = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    watches = Array.make 32 [];
    trail = Array.make 16 0;
    trail_n = 0;
    trail_lim = Array.make 16 0;
    dlevel = 0;
    qhead = 0;
    var_inc = 1.0;
    root_conflict = false;
    last_core = None;
    s_decisions = 0;
    s_propagations = 0;
    s_conflicts = 0;
    s_learned = 0;
    s_max_backjump = 0;
    s_restarts = 0;
  }

let stats s =
  {
    decisions = s.s_decisions;
    propagations = s.s_propagations;
    conflicts = s.s_conflicts;
    learned = s.s_learned;
    max_backjump = s.s_max_backjump;
    restarts = s.s_restarts;
  }

(* ---- literals ----------------------------------------------------- *)

let var_of l = l lsr 1

let neg_lit l = l lxor 1

let lit_of_var v ~positive = if positive then 2 * v else (2 * v) + 1

(* -1 unassigned, 0 false, 1 true — of the literal, not the variable *)
let value s l =
  let a = s.assign.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let grow arr len fill =
  let a = Array.make (max len (2 * Array.length arr)) fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let var_of_int l = if l = 0 then invalid_arg "Solver: 0 is not a literal" else abs l

(* The internal literal of a DIMACS one, bringing its variable (and
   every smaller one) into existence. *)
let internal s l =
  let v = var_of_int l in
  if v > s.nvars then begin
    if v >= Array.length s.assign then begin
      s.assign <- grow s.assign (v + 1) (-1);
      s.level <- grow s.level (v + 1) 0;
      s.reason <- grow s.reason (v + 1) None;
      s.activity <- grow s.activity (v + 1) 0.;
      s.polarity <- grow s.polarity (v + 1) false;
      s.seen <- grow s.seen (v + 1) false;
      s.trail <- grow s.trail (v + 1) 0
    end;
    if (2 * v) + 1 >= Array.length s.watches then s.watches <- grow s.watches ((2 * v) + 2) [];
    s.nvars <- v
  end;
  lit_of_var v ~positive:(l > 0)

let external_lit l = if l land 1 = 0 then var_of l else -var_of l

(* ---- trail -------------------------------------------------------- *)

let enqueue s l reason =
  match value s l with
  | 1 -> true
  | 0 -> false
  | _ ->
      let v = var_of l in
      s.assign.(v) <- 1 - (l land 1);
      s.level.(v) <- s.dlevel;
      s.reason.(v) <- reason;
      if reason <> None then s.s_propagations <- s.s_propagations + 1;
      s.trail.(s.trail_n) <- l;
      s.trail_n <- s.trail_n + 1;
      true

let new_decision_level s =
  if s.dlevel >= Array.length s.trail_lim then s.trail_lim <- grow s.trail_lim (s.dlevel + 1) 0;
  s.trail_lim.(s.dlevel) <- s.trail_n;
  s.dlevel <- s.dlevel + 1

let backtrack s target =
  if s.dlevel > target then begin
    let mark = s.trail_lim.(target) in
    for i = s.trail_n - 1 downto mark do
      let v = var_of s.trail.(i) in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- None
    done;
    s.trail_n <- mark;
    s.qhead <- mark;
    s.dlevel <- target
  end

(* ---- propagation -------------------------------------------------- *)

(* Process the watch list of each newly falsified literal: a clause
   either finds a replacement watch, is satisfied, propagates its other
   watch, or is the conflict. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let false_lit = neg_lit p in
    let ws = s.watches.(false_lit) in
    s.watches.(false_lit) <- [];
    let rec go = function
      | [] -> ()
      | c :: rest -> (
          let lits = c.lits in
          (* normalise: the falsified watch sits at index 1 *)
          if lits.(0) = false_lit then begin
            lits.(0) <- lits.(1);
            lits.(1) <- false_lit
          end;
          if value s lits.(0) = 1 then begin
            (* satisfied by the other watch: keep watching *)
            s.watches.(false_lit) <- c :: s.watches.(false_lit);
            go rest
          end
          else
            let n = Array.length lits in
            let rec find k = if k >= n then -1 else if value s lits.(k) <> 0 then k else find (k + 1) in
            match find 2 with
            | k when k >= 0 ->
                (* new watch found: move the clause to its list *)
                lits.(1) <- lits.(k);
                lits.(k) <- false_lit;
                s.watches.(lits.(1)) <- c :: s.watches.(lits.(1));
                go rest
            | _ ->
                s.watches.(false_lit) <- c :: s.watches.(false_lit);
                if value s lits.(0) = 0 then begin
                  (* all literals false: conflict; keep the rest watched *)
                  conflict := Some c;
                  List.iter
                    (fun c' -> s.watches.(false_lit) <- c' :: s.watches.(false_lit))
                    rest
                end
                else begin
                  ignore (enqueue s lits.(0) (Some c));
                  go rest
                end)
    in
    go ws
  done;
  !conflict

(* ---- VSIDS -------------------------------------------------------- *)

let rescale s =
  for v = 1 to s.nvars do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale s

let decay s = s.var_inc <- s.var_inc /. 0.95

let pick_branch_var s =
  let best = ref (-1) and best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.assign.(v) < 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

(* ---- conflict analysis -------------------------------------------- *)

(* First-UIP resolution along the trail. Returns the learned clause
   (asserting literal first) and the backjump level. *)
let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let idx = ref (s.trail_n - 1) in
  let continue = ref true in
  while !continue do
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = var_of q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            bump s v;
            if s.level.(v) = s.dlevel then incr counter else learnt := q :: !learnt
          end
        end)
      !c.lits;
    while not s.seen.(var_of s.trail.(!idx)) do
      decr idx
    done;
    p := s.trail.(!idx);
    s.seen.(var_of !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else
      c :=
        (match s.reason.(var_of !p) with
        | Some r -> r
        | None -> assert false (* only the UIP can lack a reason *))
  done;
  List.iter (fun q -> s.seen.(var_of q) <- false) !learnt;
  let bj = List.fold_left (fun acc q -> max acc s.level.(var_of q)) 0 !learnt in
  (neg_lit !p :: !learnt, bj)

let attach s c =
  s.watches.(c.lits.(0)) <- c :: s.watches.(c.lits.(0));
  s.watches.(c.lits.(1)) <- c :: s.watches.(c.lits.(1))

(* Install a learned clause after backjumping: the asserting literal is
   watched together with a literal from the backjump level. *)
let learn s lits_list bj =
  s.s_learned <- s.s_learned + 1;
  match lits_list with
  | [] -> s.root_conflict <- true
  | [ l ] -> if not (enqueue s l None) then s.root_conflict <- true
  | first :: _ ->
      let lits = Array.of_list lits_list in
      let k = ref 1 in
      Array.iteri (fun i q -> if i >= 1 && s.level.(var_of q) = bj then k := i) lits;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!k);
      lits.(!k) <- tmp;
      let c = { lits } in
      attach s c;
      ignore (enqueue s first (Some c))

(* ---- clause addition ---------------------------------------------- *)

(* Clauses are added at decision level 0 (every [solve_with] returns
   with the trail rewound), so literals already assigned are assigned
   permanently: true literals discharge the clause, false ones are
   dropped. The caller's array is never written: the solver works on a
   sorted copy, where repeated literals and complementary pairs sit
   side by side. *)
let add_clause s clause =
  let lits = Array.map (internal s) clause in
  backtrack s 0;
  if not s.root_conflict then begin
    Array.sort Int.compare lits;
    let kept = ref [] and satisfied = ref false in
    Array.iteri
      (fun i l ->
        if i > 0 && l = neg_lit lits.(i - 1) then satisfied := true (* tautology *)
        else if i = 0 || l <> lits.(i - 1) then
          match value s l with
          | 1 -> satisfied := true (* satisfied at root *)
          | 0 -> () (* permanently false: drop *)
          | _ -> kept := l :: !kept)
      lits;
    if not !satisfied then
      match !kept with
      | [] -> s.root_conflict <- true
      | [ l ] ->
          if not (enqueue s l None) then s.root_conflict <- true
          else if propagate s <> None then s.root_conflict <- true
      | kept -> attach s { lits = Array.of_list (List.rev kept) }
  end

(* ---- search ------------------------------------------------------- *)

(* MiniSat's analyzeFinal: called when the next assumption [p] is
   already false under the assumptions asserted so far. Walk the trail
   top-down from the seen-marked falsifying assignment, expanding
   reasons; every reason-less literal above level 0 met on the way is
   an earlier assumption decision that [~p] depends on. Together with
   [p] itself they form a subset of the assumptions whose conjunction
   with the clause database is unsatisfiable. Root-level literals are
   assumption-free and stay out of the core. *)
let analyze_final s p =
  let core = ref [ p ] in
  if s.dlevel > 0 then begin
    s.seen.(var_of p) <- true;
    for i = s.trail_n - 1 downto s.trail_lim.(0) do
      let v = var_of s.trail.(i) in
      if s.seen.(v) then begin
        (match s.reason.(v) with
        | None -> if s.level.(v) > 0 then core := s.trail.(i) :: !core
        | Some c ->
            Array.iter (fun q -> if s.level.(var_of q) > 0 then s.seen.(var_of q) <- true) c.lits);
        s.seen.(v) <- false
      end
    done;
    s.seen.(var_of p) <- false
  end;
  !core

let extract_model s = Array.init (s.nvars + 1) (fun v -> s.assign.(v) = 1)

let solve_with ?(assumptions = []) s =
  let assumptions = Array.of_list (List.map (internal s) assumptions) in
  if s.root_conflict then begin
    (* the clause database alone is unsatisfiable: the empty core *)
    s.last_core <- Some [];
    None
  end
  else begin
    backtrack s 0;
    let n_assumed = Array.length assumptions in
    (* pessimistic default: every UNSAT exit other than a failed
       assumption is a root conflict, where the empty core is right *)
    s.last_core <- Some [];
    let result = ref None and running = ref true in
    (* geometric restarts: every learned clause is kept, so a restart
       only abandons the current decision stack and lets VSIDS +
       phase saving re-descend along fresher activities *)
    let restart_limit = ref 100 and restart_conflicts = ref 0 in
    while !running do
      match propagate s with
      | Some confl ->
          s.s_conflicts <- s.s_conflicts + 1;
          if s.dlevel = 0 then begin
            s.root_conflict <- true;
            running := false
          end
          else begin
            let learned, bj = analyze s confl in
            s.s_max_backjump <- max s.s_max_backjump (s.dlevel - bj);
            backtrack s bj;
            learn s learned bj;
            decay s;
            if s.root_conflict then running := false
            else begin
              incr restart_conflicts;
              if !restart_conflicts >= !restart_limit && s.dlevel > n_assumed then begin
                (* the solve loop re-asserts the assumptions as fresh
                   decisions after the rewind *)
                backtrack s 0;
                s.s_restarts <- s.s_restarts + 1;
                restart_conflicts := 0;
                restart_limit := (!restart_limit * 3 / 2) + 1
              end
            end
          end
      | None ->
          if s.dlevel < n_assumed then begin
            (* re-assert the next assumption as a decision *)
            let p = assumptions.(s.dlevel) in
            match value s p with
            | 1 -> new_decision_level s (* already holds: dummy level *)
            | 0 ->
                (* UNSAT under the assumptions; the failed-assumption
                   core must be read off before the trail is rewound *)
                s.last_core <- Some (analyze_final s p);
                running := false
            | _ ->
                s.s_decisions <- s.s_decisions + 1;
                new_decision_level s;
                ignore (enqueue s p None)
          end
          else begin
            match pick_branch_var s with
            | -1 ->
                (* every variable assigned without conflict: a model *)
                result := Some (extract_model s);
                running := false
            | v ->
                s.s_decisions <- s.s_decisions + 1;
                new_decision_level s;
                ignore (enqueue s (lit_of_var v ~positive:s.polarity.(v)) None)
          end
    done;
    backtrack s 0;
    if !result <> None then s.last_core <- None;
    !result
  end

let unsat_core s =
  match s.last_core with
  | None -> invalid_arg "Solver.unsat_core: last solve was satisfiable (or no solve has run)"
  | Some core -> List.rev_map external_lit core

let root_value s l =
  let v = var_of_int l in
  if v > s.nvars || s.assign.(v) < 0 || s.level.(v) > 0 then None
  else Some (s.assign.(v) = 1 = (l > 0))

(* ---- one-shot API over named variables ----------------------------- *)

(* The names are numbered in order of first appearance. *)
let solve (cnf : Cnf.t) =
  let ids = Hashtbl.create 64 in
  let var name =
    match Hashtbl.find_opt ids name with
    | Some v -> v
    | None ->
        let v = Hashtbl.length ids + 1 in
        Hashtbl.add ids name v;
        v
  in
  let lit (l : Cnf.literal) = if l.positive then var l.var else -var l.var in
  let s = create () in
  List.iter (fun clause -> add_clause s (Array.of_list (List.map lit clause))) cnf;
  Option.map
    (fun model name -> match Hashtbl.find_opt ids name with Some v -> model.(v) | None -> false)
    (solve_with s)

let satisfiable cnf = Option.is_some (solve cnf)
