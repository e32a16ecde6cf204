(* Spans of the traced run.

   Every call the benchmark makes into a library layer is wrapped in a
   span: name, start, end, parent span and op id. Spans stay in memory
   and are written out as Chrome trace-event JSON when the run ends
   (Perfetto and chrome://tracing open it). A span's SELF time is its
   duration minus its child spans, minus the ball checks that ran
   inside it on the op's own domain; the self time goes to the span's
   per-layer metric, the checks to [arbiter.check_ms]. The op's root
   span keeps what no child covers: [trace.unattributed_ms]. So per op

     sum of self times + check time + unattributed = op duration

   which {!verify} re-derives from the recorded spans.

   Ball checks run by the thousand inside one compile, so they are
   aggregated into their enclosing span rather than recorded one by
   one. Checks on helper domains (pruned search fans out) are counted
   but not timed: their wall time is already inside the op's span.

   With tracing off, [call] and [op] are a branch and a closure call. *)

let now = Unix.gettimeofday

type span = {
  name : string;  (** the library call, or the op class for a root *)
  metric : string;  (** the per-layer metric receiving the self time *)
  op : int;
  id : int;
  parent : int;  (** -1 for an op's root span *)
  t0 : float;
  mutable t1 : float;
  c0 : int;  (** check counter at start *)
  ct0 : float;  (** timed check seconds at start *)
  mutable checks : int;  (** inclusive *)
  mutable check_s : float;  (** inclusive *)
  mutable child_s : float;
  mutable child_checks : int;
  mutable child_check_s : float;
  mutable self_s : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let check_count = Atomic.make 0
let check_time = ref 0.
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let traced_ops = ref 0
let lock = Mutex.create ()

let add name v =
  Mutex.protect lock (fun () ->
      Hashtbl.replace sums name (v +. Option.value ~default:0. (Hashtbl.find_opt sums name)))

(* A counter of the current op: summed over traced ops, reported as a
   per-op mean. No-op when tracing is off. *)
let count name v = if !enabled then add name v

let sum name = Option.value ~default:0. (Mutex.protect lock (fun () -> Hashtbl.find_opt sums name))

let mean name = if !traced_ops = 0 then 0. else sum name /. float_of_int !traced_ops

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset sums;
  traced_ops := 0

let open_span ~name ~metric ~op ~parent =
  let id = !next_id in
  incr next_id;
  {
    name;
    metric;
    op;
    id;
    parent;
    t0 = now ();
    t1 = 0.;
    c0 = Atomic.get check_count;
    ct0 = !check_time;
    checks = 0;
    check_s = 0.;
    child_s = 0.;
    child_checks = 0;
    child_check_s = 0.;
    self_s = 0.;
  }

(* Close [s]: fix its inclusive figures, book its self time and own
   checks, and charge it to the parent's children. *)
let close ?parent s =
  s.t1 <- now ();
  s.checks <- Atomic.get check_count - s.c0;
  s.check_s <- !check_time -. s.ct0;
  let dur = s.t1 -. s.t0 in
  let own_check_s = s.check_s -. s.child_check_s in
  s.self_s <- dur -. s.child_s -. own_check_s;
  add s.metric (s.self_s *. 1e3);
  add "arbiter.check_ms" (own_check_s *. 1e3);
  add "arbiter.checks" (float_of_int (s.checks - s.child_checks));
  Option.iter
    (fun p ->
      p.child_s <- p.child_s +. dur;
      p.child_checks <- p.child_checks + s.checks;
      p.child_check_s <- p.child_check_s +. s.check_s)
    parent;
  recorded := s :: !recorded

(* [call ~metric name f]: run one library call as a child of the
   current span. [incl] additionally books the inclusive duration. *)
let call ?incl ~metric name f =
  match !stack with
  | [] -> f ()
  | parent :: _ ->
      let s = open_span ~name ~metric ~op:parent.op ~parent:parent.id in
      stack := s :: !stack;
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          close ~parent s;
          Option.iter (fun m -> add m ((s.t1 -. s.t0) *. 1e3)) incl)
        f

let gc_words () =
  let st = Gc.quick_stat () in
  (st.Gc.minor_words, st.Gc.major_collections)

(* [op ~id name f]: run one op under a root span when tracing. *)
let op ~id name f =
  if not !enabled then f ()
  else begin
    let words0, majors0 = gc_words () in
    let s = open_span ~name ~metric:"trace.unattributed_ms" ~op:id ~parent:(-1) in
    stack := [ s ];
    Fun.protect
      ~finally:(fun () ->
        stack := [];
        close s;
        let words1, majors1 = gc_words () in
        add "gc.minor_mwords" ((words1 -. words0) /. 1e6);
        add "gc.major_collections" (float_of_int (majors1 - majors0));
        add "trace.op_ms" ((s.t1 -. s.t0) *. 1e3);
        incr traced_ops)
      f
  end

(* A finished op whose split is known only after the fact (serve round
   trips: the split comes from the response). [children] are
   (name, metric, start, end). Thread-safe. *)
let record_op ~id name ~t0 ~t1 children =
  let span ~name ~metric ~parent a b =
    let s = Mutex.protect lock (fun () -> open_span ~name ~metric ~op:id ~parent) in
    let s = { s with t0 = a } in
    s.t1 <- b;
    s.self_s <- b -. a;
    s
  in
  let root = span ~name ~metric:"trace.unattributed_ms" ~parent:(-1) t0 t1 in
  let kids =
    List.map (fun (cname, metric, a, b) -> span ~name:cname ~metric ~parent:root.id a b) children
  in
  List.iter
    (fun c ->
      root.child_s <- root.child_s +. c.self_s;
      add c.metric (c.self_s *. 1e3))
    kids;
  root.self_s <- t1 -. t0 -. root.child_s;
  add root.metric (root.self_s *. 1e3);
  add "trace.op_ms" ((t1 -. t0) *. 1e3);
  Mutex.protect lock (fun () ->
      recorded := root :: List.rev_append kids !recorded;
      incr traced_ops)

(* The arbiter with its public [checker] wrapped: every ball check is
   counted, and timed when it runs on the op's own domain. *)
let wrap_arbiter (a : Lph_core.Arbiter.t) =
  let checker g ~ids =
    Option.map
      (fun check u ~certs ->
        Atomic.incr check_count;
        if Domain.is_main_domain () then begin
          let t0 = now () in
          let r = check u ~certs in
          check_time := !check_time +. (now () -. t0);
          r
        end
        else check u ~certs)
      (a.Lph_core.Arbiter.checker g ~ids)
  in
  { a with Lph_core.Arbiter.checker }

(* Re-derive the attribution identity from the recorded spans: every
   child lies inside its parent, and per op the self times, own check
   times and the root's unattributed time add up to the root's
   duration. Returns the number of violating ops. *)
let verify () =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !recorded;
  let totals = Hashtbl.create 256 in
  let bad = Hashtbl.create 16 in
  let eps = 1e-9 in
  List.iter
    (fun s ->
      let own_check = s.check_s -. s.child_check_s in
      let acc = Option.value ~default:0. (Hashtbl.find_opt totals s.op) in
      Hashtbl.replace totals s.op (acc +. s.self_s +. own_check);
      if s.parent >= 0 then
        match Hashtbl.find_opt by_id s.parent with
        | Some p when s.t0 +. eps >= p.t0 && s.t1 <= p.t1 +. eps -> ()
        | _ -> Hashtbl.replace bad s.op ())
    !recorded;
  List.iter
    (fun s ->
      if s.parent < 0 then
        let total = Option.value ~default:0. (Hashtbl.find_opt totals s.op) in
        if Float.abs (total -. (s.t1 -. s.t0)) > 1e-6 then Hashtbl.replace bad s.op ())
    !recorded;
  Hashtbl.length bad

let layer_of metric =
  match String.index_opt metric '.' with Some i -> String.sub metric 0 i | None -> metric

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span. *)
let write_chrome path =
  let spans = List.rev !recorded in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"op\": %d, \"span\": %d, \"parent\": %d, \"self_ms\": %.6f, \
         \"checks\": %d, \"check_ms\": %.6f}}\n"
        (if i = 0 then "" else ",")
        s.name (layer_of s.metric)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.op s.id s.parent (s.self_s *. 1e3) s.checks (s.check_s *. 1e3))
    spans;
  output_string oc "]}\n";
  close_out oc
