(* The serve workloads: the shipped serve.exe as a child process, driven
   by a closed loop over nproc - 1 blocking connections (at least one).

   serve-hot keeps fifteen (property, graph, engine) keys resident and
   repeats them in weighted rounds; serve-churn names a (property,
   graph) pair no earlier request named, against a small cache bound. *)

open Lph_core
module P = Serve_protocol

type request = { req : P.request; expect : bool; nodes : int }

let accepts ?(player = Game.Eve) engine property graph =
  { P.id = 0; engine; property; graph; query = P.Accepts player }

let nodes_of = function
  | P.Cycle n | P.Path n | P.Complete n | P.Star n -> n
  | P.Grid (r, c) | P.Torus (r, c) -> r * c
  | P.Expander { n; _ } -> n

let request ~expect req = { req; expect; nodes = nodes_of req.P.graph }

(* bin/loadgen.ml's template mix with `Sat replaced by `Cegar, plus
   a CEGAR key and certificate checks on larger graphs and pruned keys
   on tori and cycles of 256 to 2000 nodes, each with the number of
   times a round names it. Every answer is a closed form. *)
let hot_keys =
  let alternating n = Array.init n (fun v -> if v mod 2 = 0 then "0" else "1") in
  let checkerboard r c = Array.init (r * c) (fun v -> if ((v / c) + (v mod c)) mod 2 = 0 then "0" else "1") in
  let check property graph certs = { P.id = 0; engine = `Auto; property; graph; query = P.Check certs } in
  [
    (1, request ~expect:true (accepts `Cegar (P.Coloring 3) (P.Cycle 12)));
    (* Pi1: Adam picks an improper colouring of C9 *)
    (1, request ~expect:false (accepts ~player:Game.Adam `Cegar (P.Coloring 2) (P.Cycle 9)));
    (1, request ~expect:true (accepts `Cegar P.Robust_two_col (P.Cycle 6)));
    (1, request ~expect:true (accepts `Pruned (P.Coloring 2) (P.Cycle 8)));
    (1, request ~expect:false (accepts `Cegar (P.Coloring 3) (P.Complete 4)));
    (1, request ~expect:true (check (P.Coloring 2) (P.Cycle 10) [ alternating 10 ]));
    (1, request ~expect:true (accepts `Cegar (P.Coloring 3) (P.Path 7)));
    (1, request ~expect:false (accepts `Cegar (P.Coloring 2) (P.Cycle 2001)));
    (1, request ~expect:true (check (P.Coloring 2) (P.Torus (16, 16)) [ checkerboard 16 16 ]));
    (1, request ~expect:false (check (P.Coloring 2) (P.Torus (16, 16)) [ Array.make 256 "0" ]));
    (1, request ~expect:true (accepts `Pruned (P.Coloring 2) (P.Torus (16, 16))));
    (3, request ~expect:true (accepts `Pruned (P.Coloring 2) (P.Torus (20, 20))));
    (5, request ~expect:true (accepts `Pruned (P.Coloring 3) (P.Cycle 1000)));
    (5, request ~expect:false (accepts `Pruned (P.Coloring 2) (P.Cycle 1501)));
    (5, request ~expect:true (accepts `Pruned (P.Coloring 2) (P.Cycle 2000)));
  ]

let hot_set = Array.of_list (List.map snd hot_keys)

(* One round of serve-hot: 29 requests in a seeded order. Weighting the
   pruned searches on the cycles puts the median and the tail inside
   their latencies rather than in the socket round trip of the small
   keys, which on a shared host varies more than the work does. *)
let hot_round = Array.of_list (List.concat (List.mapi (fun i (w, _) -> List.init w (fun _ -> i)) hot_keys))

let hot_picks rng ~count =
  let n = Array.length hot_round in
  Array.concat
    (List.init ((count / n) + 1) (fun _ ->
         let a = Array.copy hot_round in
         for i = n - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = a.(i) in
           a.(i) <- a.(j);
           a.(j) <- t
         done;
         a))

(* Churn keys: a fresh (property, graph) pair per request, bounded cost
   by construction (no pruned search on expanders, no 3-col on tori).
   Request j goes to connection j mod [conns] and belongs to class
   (j / conns) mod 6, so every connection cycles through every class. *)
let churn_list ~seed ~conns ~count =
  let gen = { Batch.rng = Random.State.make [| seed; 0xc4 |]; used = Hashtbl.create 4096 } in
  let size lo hi =
    let s = Batch.stream gen.Batch.rng lo hi in
    fun () -> Batch.draw s
  in
  let fresh make =
    let rec go tries =
      if tries = 0 then None
      else
        let r = make () in
        let key = P.key r in
        if Hashtbl.mem gen.Batch.used key then go (tries - 1)
        else begin
          Hashtbl.add gen.Batch.used key ();
          Some r
        end
    in
    go 50
  in
  let classes =
    let c2 = size 40 200 and p2 = size 300 1200 and p3 = size 300 1500 in
    let side = size 12 30 and e = size 30 80 and c3 = size 20 120 in
    [|
      (fun () -> accepts `Cegar (P.Coloring 2) (P.Cycle (c2 ())));
      (fun () -> accepts `Pruned (P.Coloring 2) (P.Cycle (p2 ())));
      (fun () -> accepts `Pruned (P.Coloring 3) (P.Cycle (p3 ())));
      (fun () ->
        let r = side () and c = side () in
        accepts `Pruned (P.Coloring 2) (P.Torus (min r c, max r c)));
      (fun () ->
        accepts `Cegar (P.Coloring 2)
          (P.Expander { n = e (); cycles = 2; seed = Random.State.bits gen.Batch.rng }));
      (fun () -> accepts `Cegar (P.Coloring 3) (P.Cycle (c3 ())));
    |]
  in
  let expect (req : P.request) =
    match (req.P.property, req.P.graph) with
    | P.Coloring 2, P.Cycle n -> n mod 2 = 0
    | P.Coloring 2, P.Torus (r, c) -> r mod 2 = 0 && c mod 2 = 0
    | P.Coloring 2, (P.Expander _ as g) -> Properties.two_colorable (P.build_graph g)
    | P.Coloring _, P.Cycle _ -> true
    | _ -> invalid_arg "churn: no reference"
  in
  List.filter_map
    (fun j ->
      Option.map
        (fun r -> request ~expect:(expect r) r)
        (fresh classes.(j / conns mod Array.length classes)))
    (List.init count Fun.id)
  |> Array.of_list

(* ---- the daemon ---------------------------------------------------- *)

type daemon = { pid : int; out : in_channel; socket : string }

let live : daemon list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let spawn ~exe ~socket ~cache_mb =
  (try Sys.remove socket with Sys_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    Array.of_list
      ([ exe; "--socket"; socket ] @ if cache_mb > 0 then [ "--cache-mb"; string_of_int cache_mb ] else [])
  in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let d = { pid; out = Unix.in_channel_of_descr rd; socket } in
  live := d :: !live;
  (* the daemon prints its banner once the socket is bound, and only
     then installs its SIGINT handler: wait for that too, or a quick
     stop would kill it before the stats line *)
  (match input_line d.out with
  | line when String.starts_with ~prefix:"lph-serve: listening" line -> ()
  | line -> failwith ("serve.exe: unexpected banner " ^ line)
  | exception End_of_file -> failwith "serve.exe exited before listening");
  let catches_sigint () =
    let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
    let rec go () =
      match input_line ic with
      | l when String.starts_with ~prefix:"SigCgt:" l ->
          Int64.logand (Int64.of_string ("0x" ^ String.trim (String.sub l 7 (String.length l - 7)))) 2L
          <> 0L
      | _ -> go ()
      | exception End_of_file -> false
    in
    Fun.protect ~finally:(fun () -> close_in ic) go
  in
  let rec wait tries =
    if not (catches_sigint ()) then
      if tries = 0 then failwith "serve.exe never installed its SIGINT handler"
      else begin
        Unix.sleepf 0.001;
        wait (tries - 1)
      end
  in
  wait 10_000;
  d

type sched = {
  requests : int;
  batches : int;
  hits : int;
  misses : int;
  evictions : int;
  resident : int;
}

(* SIGINT, then the shutdown stats line. *)
let stop d =
  Unix.kill d.pid Sys.sigint;
  let rec last acc = match input_line d.out with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  close_in d.out;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Sys.remove d.socket with Sys_error _ -> ());
  match line with
  | Some l -> (
      try
        Scanf.sscanf l
          "lph-serve: stopped after %d requests in %d batches (%d hits, %d misses, %d evictions, %d resident)"
          (fun requests batches hits misses evictions resident ->
            { requests; batches; hits; misses; evictions; resident })
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> failwith ("serve.exe: bad stats line " ^ l))
  | None -> failwith "serve.exe: no stats line"

(* /proc/<pid>/status fields in kB; /proc/<pid>/stat CPU in clock ticks
   (USER_HZ, 100 on Linux). *)
let proc_status pid field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:(field ^ ":") l ->
        Scanf.sscanf (String.sub l (String.length field + 1) (String.length l - String.length field - 1)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: fields -> (
      match List.filteri (fun i _ -> i = 10 || i = 11) fields with
      | [ utime; stime ] -> float_of_int (int_of_string utime + int_of_string stime) /. 100.
      | _ -> 0.)
  | [] -> 0.

(* ---- one connection's closed loop ---------------------------------- *)

type sample = {
  lat_ms : float;
  answer_ms : float;
  hit : bool;
  ok : bool;
  traced : bool;
  nodes : int;
  done_s : float;  (** completion, seconds after the measured window opened *)
}

let send client ~id (r : request) =
  let resp = Serve_client.request client { r.req with P.id } in
  let ok =
    resp.P.id = id && match resp.P.outcome with Ok b -> b = r.expect | Error _ -> false
  in
  (resp, ok)

let describe (r : request) = P.property_name r.req.P.property ^ " " ^ P.spec_to_string r.req.P.graph

type outcome = {
  samples : sample list;  (** one per measured request *)
  setup_s : float list;  (** one per set-up pass *)
  setup_requests : int;  (** the serve-hot fills of every pass, checked like the rest *)
  setup_failed : int;
  sched : sched;  (** the measured window's share of the stats line *)
  cpu_s : float;
  peak_rss_mb : float;
  rss_end_mb : float;
  threads : int;
  minor_words : float;
  major_collections : int;
}

let connect_all ~socket conns =
  List.init conns (fun _ -> Serve_client.connect ~wire:Codec.Packed ~retries:20 ~seed:1 ~socket ())

(* Five set-up passes (spawn, connect, for serve-hot the cold fill),
   the last of which is kept for the measured closed loop. *)
let run ~hot ~exe ~out ~seed ~seconds ~trace ~conns ~t_start =
  let passes = 5 in
  (* every pass's fill is checked and counted; the stats line is the
     last daemon's *)
  let checked = ref 0 and wrong = ref 0 in
  let rec setup i acc =
    let t = if i = 0 then t_start else Unix.gettimeofday () in
    let churn = if hot then [||] else churn_list ~seed ~conns ~count:4000 in
    let picks =
      if not hot then [||]
      else
        Array.init conns (fun c -> hot_picks (Random.State.make [| seed; c |]) ~count:100_000)
    in
    let socket = Printf.sprintf "%s/serve-%d-%d.sock" out (Unix.getpid ()) i in
    let d = spawn ~exe ~socket ~cache_mb:(if hot then 0 else 4) in
    let clients = connect_all ~socket conns in
    let fill_hits = ref 0 and fill_requests = ref 0 in
    if hot then
      for pass = 0 to 1 do
        Array.iteri
          (fun k r ->
            let resp, ok = send (List.hd clients) ~id:(1_000_000 + (pass * 1000) + k) r in
            incr fill_requests;
            incr checked;
            if resp.P.cache_hit then incr fill_hits;
            if not ok then begin
              incr wrong;
              Printf.eprintf "perfbench: set-up request %s answered wrongly\n%!" (describe r)
            end)
          hot_set
      done;
    let acc = (Unix.gettimeofday () -. t) :: acc in
    if i + 1 < passes then begin
      List.iter Serve_client.close clients;
      ignore (stop d);
      setup (i + 1) acc
    end
    else (d, clients, churn, picks, (!fill_requests, !fill_hits), List.rev acc)
  in
  let d, clients, churn, picks, (fill_requests, fill_hits), setup_s = setup 0 [] in
  let gc0 = Gc.quick_stat () in
  let cpu0 = proc_cpu_s d.pid in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let results = Array.make conns [] in
  let loop c client =
    let acc = ref [] and i = ref 0 and live = ref true in
    while !live && Unix.gettimeofday () < deadline do
      let next =
        if hot then Some hot_set.(picks.(c).(!i mod Array.length picks.(c)))
        else
          let j = c + (!i * conns) in
          if j < Array.length churn then Some churn.(j) else None
      in
      (match next with
      | None -> live := false
      | Some r -> (
          let id = c + (!i * conns) in
          let traced = trace && !i / 16 mod 2 = 1 in
          let a = Unix.gettimeofday () in
          match send client ~id r with
          | resp, ok ->
              let b = Unix.gettimeofday () in
              let answer = Float.min (b -. a) (float_of_int resp.P.micros /. 1e6) in
              if traced then
                Span.record_op ~id "request" ~t0:a ~t1:b
                  [
                    ("serve.wait (send, queue, materialise, reply)", "serve.wait_ms", a, b -. answer);
                    ("serve.answer", "serve.answer_ms", b -. answer, b);
                  ];
              if not ok then Printf.eprintf "perfbench: request %s answered wrongly\n%!" (describe r);
              acc :=
                {
                  lat_ms = (b -. a) *. 1e3;
                  answer_ms = answer *. 1e3;
                  hit = resp.P.cache_hit;
                  ok;
                  traced;
                  nodes = r.nodes;
                  done_s = b -. t0;
                }
                :: !acc
          | exception e ->
              Printf.eprintf "perfbench: request %s failed: %s\n%!" (describe r) (Printexc.to_string e);
              acc :=
                { lat_ms = 0.; answer_ms = 0.; hit = false; ok = false; traced; nodes = r.nodes; done_s = 0. }
                :: !acc;
              live := false));
      incr i
    done;
    results.(c) <- !acc
  in
  let threads = List.mapi (fun c client -> Thread.create (loop c) client) clients in
  List.iter Thread.join threads;
  let cpu1 = proc_cpu_s d.pid in
  let pid = string_of_int d.pid in
  let peak_rss_mb = float_of_int (proc_status pid "VmHWM") /. 1024. in
  let rss_end_mb = float_of_int (proc_status pid "VmRSS") /. 1024. in
  let threads = proc_status pid "Threads" in
  let gc1 = Gc.quick_stat () in
  List.iter Serve_client.close clients;
  let s = stop d in
  {
    samples = List.concat (Array.to_list results);
    setup_s;
    setup_requests = !checked;
    setup_failed = !wrong;
    sched =
      {
        s with
        requests = s.requests - fill_requests;
        batches = s.batches - fill_requests;
        hits = s.hits - fill_hits;
        misses = s.misses - (fill_requests - fill_hits);
      };
    cpu_s = cpu1 -. cpu0;
    peak_rss_mb;
    rss_end_mb;
    threads;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }
