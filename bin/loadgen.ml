(* lph-loadgen: replay a deterministic mixed query stream against a
   running serve.exe daemon and report throughput and latency tails.

   usage: loadgen.exe --socket PATH [--requests N] [--connections C]
                      [--wire packed|bits|both] [--check] [--json]

   The stream cycles through a fixed template mix (CEGAR games, pruned
   search, certificate checks) over the protocol's closed graph
   catalog, so two runs with the same arguments issue byte-identical
   requests.  With [--check] every answer is compared against a local
   single-process [Game]/arbiter computation and any mismatch makes the
   exit status 1 — this is the "answers match batch mode" oracle used by
   CI's serve-smoke job. *)

open Lph_core

let usage =
  "usage: loadgen.exe --socket PATH [--requests N] [--connections C] \
   [--wire packed|bits|both] [--check] [--json]"

let socket = ref ""
let requests = ref 200
let connections = ref 4
let wire_arg = ref "both"
let check = ref false
let json = ref false

(* The template mix: (engine, property, graph, query).  Kept small and
   closed so --check can afford to recompute every distinct template
   once locally. *)
let templates =
  let open Serve_protocol in
  let proper_2col n =
    [ Array.init n (fun v -> if v mod 2 = 0 then "0" else "1") ]
  in
  [
    (`Cegar, Coloring 3, Cycle 12, Accepts Game.Eve);
    (`Cegar, Coloring 2, Cycle 9, Accepts Game.Adam);
    (`Cegar, Robust_two_col, Cycle 6, Accepts Game.Eve);
    (`Pruned, Coloring 2, Cycle 8, Accepts Game.Eve);
    (`Cegar, Coloring 3, Complete 4, Accepts Game.Eve);
    (`Auto, Coloring 2, Cycle 10, Check (proper_2col 10));
    (`Cegar, Coloring 3, Path 7, Accepts Game.Eve);
  ]

let request_of_template i (engine, property, graph, query) =
  { Serve_protocol.id = i; engine; property; graph; query }

(* Local oracle: one answer per template, computed in-process exactly
   the way batch mode (bin/lph.ml game subcommands) would. *)
let local_answer (engine, property, graph, query) =
  let open Serve_protocol in
  let g = build_graph graph in
  let a = arbiter property in
  let ids = Identifiers.make_global g in
  match query with
  | Accepts player ->
      let universes = universes property in
      let accepts =
        match player with
        | Game.Eve -> Game.sigma_accepts ~engine a g ~ids ~universes
        | Game.Adam -> Game.pi_accepts ~engine a g ~ids ~universes
      in
      accepts
  | Check certs -> (a.Arbiter.accepts g ~ids ~certs : bool)

let percentile sorted p =
  if Array.length sorted = 0 then 0.
  else
    let i = int_of_float (ceil (p /. 100. *. float (Array.length sorted))) - 1 in
    sorted.(max 0 (min (Array.length sorted - 1) i))

let () =
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH daemon socket (required)");
      ("--requests", Arg.Set_int requests, "N total requests to issue (default 200)");
      ("--connections", Arg.Set_int connections, "C concurrent client connections (default 4)");
      ("--wire", Arg.Set_string wire_arg, "MODE packed|bits|both (default both)");
      ("--check", Arg.Set check, " verify every answer against a local computation");
      ("--json", Arg.Set json, " machine-readable one-line summary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !socket = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let wires =
    match !wire_arg with
    | "packed" -> [| Codec.Packed |]
    | "bits" -> [| Codec.Bits |]
    | "both" -> [| Codec.Packed; Codec.Bits |]
    | w -> prerr_endline ("loadgen: unknown wire mode " ^ w); exit 2
  in
  let n = max 1 !requests and conns = max 1 !connections in
  let oracle =
    if !check then List.map (fun t -> local_answer t) templates else []
  in
  let mismatches = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let hits = Atomic.make 0 in
  let lat_mutex = Mutex.create () in
  let latencies = ref [] in
  let run_connection c =
    let wire = wires.(c mod Array.length wires) in
    let client = Serve_client.connect ~wire ~socket:!socket () in
    let mine = ref [] in
    (* request ids are globally unique: connection c owns i ≡ c (mod conns) *)
    let i = ref c in
    while !i < n do
      let t = List.nth templates (!i mod List.length templates) in
      let req = request_of_template !i t in
      let t0 = Unix.gettimeofday () in
      let resp = Serve_client.request client req in
      let dt = (Unix.gettimeofday () -. t0) *. 1e3 in
      mine := dt :: !mine;
      if resp.Serve_protocol.id <> req.Serve_protocol.id then begin
        Atomic.incr mismatches;
        Printf.eprintf "loadgen: response id %d for request %d\n%!"
          resp.Serve_protocol.id req.Serve_protocol.id
      end;
      if resp.Serve_protocol.cache_hit then Atomic.incr hits;
      (match resp.Serve_protocol.outcome with
      | Ok answer ->
          if !check then begin
            let want = List.nth oracle (!i mod List.length templates) in
            if answer <> want then begin
              Atomic.incr mismatches;
              Printf.eprintf "loadgen: request %d answered %b, batch mode says %b\n%!" !i
                answer want
            end
          end
      | Error e ->
          Atomic.incr errors;
          Printf.eprintf "loadgen: request %d failed: %s\n%!" !i (Error.to_string e));
      i := !i + conns
    done;
    Serve_client.close client;
    Mutex.protect lat_mutex (fun () -> latencies := List.rev_append !mine !latencies)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init conns (fun c -> Thread.create run_connection c) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let issued = Array.length lat in
  let qps = float issued /. (if wall > 0. then wall else 1e-9) in
  let p50 = percentile lat 50. and p95 = percentile lat 95. and p99 = percentile lat 99. in
  if !json then
    Printf.printf
      "{\"requests\": %d, \"connections\": %d, \"wire\": \"%s\", \"wall_s\": %.4f, \
       \"qps\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, \
       \"cache_hits\": %d, \"errors\": %d, \"mismatches\": %d}\n"
      issued conns !wire_arg wall qps p50 p95 p99 (Atomic.get hits) (Atomic.get errors)
      (Atomic.get mismatches)
  else begin
    Printf.printf "loadgen: %d requests over %d connections (%s wire) in %.3f s — %.1f req/s\n"
      issued conns !wire_arg wall qps;
    Printf.printf "loadgen: latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms; %d cache hits\n" p50
      p95 p99 (Atomic.get hits);
    if !check then
      Printf.printf "loadgen: %d mismatches vs batch mode, %d errors\n" (Atomic.get mismatches)
        (Atomic.get errors)
  end;
  if Atomic.get mismatches > 0 || (!check && Atomic.get errors > 0) then exit 1
