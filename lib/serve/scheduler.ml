(* The batching scheduler: the part of the daemon that turns a stream
   of independent queries into cache-friendly work.

   Requests are collected into a queue by connection threads and
   drained by ONE dispatcher thread, which groups the drained batch by
   {!Protocol.key} — same property, same graph spec — and dispatches
   the groups over the shared {!Lph_util.Parallel} pool. Grouping is
   what makes the caches pay: every request in a group runs against the
   same materialised graph, identifier assignment and arbiter, so the
   per-graph {!Game_sat}/{!Game_cegar} compile caches and the
   {!Neighborhood} memos are hit by construction, across requests and
   across connections. Requests within a group run sequentially (the
   compiled instance's solver serialises them anyway); distinct groups
   run in parallel.

   The entry cache is LRU-BOUNDED by an estimated byte cost
   ([LPH_SERVE_CACHE_MB], default 256): after each batch, entries are
   re-costed from their graph size plus the compiled ball tables
   ({!Game_sat.graph_table_entries}), and least-recently-used entries
   are evicted until the estimate is back under the bound. Evicting an
   entry drops its graph reference, and everything the engines derived
   from that graph lives in {!Lph_graph.Graph_memo} stores that die
   with it, so there is no engine to notify. A long-lived daemon
   therefore converges on the working set the traffic actually
   names. *)

module P = Protocol
module Error = Lph_util.Error
module Parallel = Lph_util.Parallel
module G = Lph_graph.Labeled_graph
module Identifiers = Lph_graph.Identifiers
module Game = Lph_hierarchy.Game
module Game_sat = Lph_hierarchy.Game_sat
module Arbiter = Lph_hierarchy.Arbiter

let what = "Serve_scheduler"

type entry = {
  graph : G.t;
  ids : Identifiers.t;
  arbiter : Arbiter.t;
  universes : Game.universe list;
  mutable last_used : int;  (** batch tick of the last request served *)
  mutable cost : int;  (** estimated resident bytes, re-costed per batch *)
}

type job = {
  req : P.request;
  reply : P.response -> unit;
  deadline : (float * int) option;  (** absolute expiry (epoch seconds) and the ms budget *)
}

type stats = {
  requests : int;
  batches : int;
  cache_hits : int;
  cache_misses : int;
  evictions : int;
  entries : int;
  overloads : int;
  expired : int;
}

type t = {
  mutex : Mutex.t;
  wake : Condition.t;
  mutable queue : job list;  (** reversed arrival order *)
  mutable stop : bool;
  cache : (string, entry) Hashtbl.t;
  cap_bytes : int;
  queue_cap : int option;  (** submissions beyond this many queued jobs are refused *)
  mutable s_overloads : int;
  mutable s_expired : int;
  mutable tick : int;
  mutable s_requests : int;
  mutable s_batches : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable dispatcher : Thread.t option;
}

let default_cache_mb = 256

let cache_mb_env () =
  match Sys.getenv_opt "LPH_SERVE_CACHE_MB" with
  | None | Some "" -> default_cache_mb
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some m when m >= 1 -> m
      | _ -> invalid_arg "Scheduler: LPH_SERVE_CACHE_MB must be a positive integer")

(* The ambient per-request deadline: unset or empty means none, [0] is
   a deadline that is already expired at submission (the deterministic
   handle the timeout tests grip). *)
let timeout_ms_env () =
  match Sys.getenv_opt "LPH_SERVE_TIMEOUT_MS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> Some v
      | _ -> invalid_arg "Scheduler: LPH_SERVE_TIMEOUT_MS must be a non-negative integer")

let queue_cap_env () =
  match Sys.getenv_opt "LPH_SERVE_QUEUE_CAP" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 1 -> Some v
      | _ -> invalid_arg "Scheduler: LPH_SERVE_QUEUE_CAP must be a positive integer")

(* ---- cost model ----------------------------------------------------

   An estimate, not an audit: CSR rows and id strings for the graph,
   plus the compiled ball tables on both engine caches at ~128 bytes
   per tabulated configuration (clause + selector footprint). Wrong by
   a constant factor at worst, monotone in reality — which is all an
   LRU bound needs. *)

let graph_bytes g =
  let ids_overhead = 32 * G.card g in
  (16 * G.card g) + (16 * G.num_edges g) + ids_overhead

let entry_cost e = graph_bytes e.graph + (128 * Game_sat.graph_table_entries e.graph)

(* Everything derived from the graph lives in per-graph memo stores, so
   dropping the entry's graph reference frees it. *)
let evict_entry t key =
  Hashtbl.remove t.cache key;
  t.s_evictions <- t.s_evictions + 1

(* Called with [t.mutex] held, after a batch re-costed its entries.
   Evicts in last-used order until under the bound; entries touched by
   the current tick go last but are not exempt — the bound is a bound. *)
let enforce_cap t =
  let total () = Hashtbl.fold (fun _ e acc -> acc + e.cost) t.cache 0 in
  while total () > t.cap_bytes && Hashtbl.length t.cache > 1 do
    let oldest =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, prev) when prev.last_used <= e.last_used -> acc
          | _ -> Some (key, e))
        t.cache None
    in
    match oldest with Some (key, _) -> evict_entry t key | None -> ()
  done

(* ---- answering ------------------------------------------------------ *)

let resolve_entry t (req : P.request) =
  let key = P.key req in
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.cache key with
  | Some e ->
      e.last_used <- t.tick;
      t.s_hits <- t.s_hits + 1;
      Mutex.unlock t.mutex;
      Result.Ok (e, true)
  | None -> (
      t.s_misses <- t.s_misses + 1;
      Mutex.unlock t.mutex;
      (* materialise outside the lock: graph construction is real work *)
      match
        let graph = P.build_graph req.graph in
        let arbiter = P.arbiter req.property in
        { graph; ids = Identifiers.make_global graph; arbiter;
          universes = P.universes req.property; last_used = 0; cost = 0 }
      with
      | e ->
          e.cost <- graph_bytes e.graph;
          Mutex.lock t.mutex;
          e.last_used <- t.tick;
          (* a racing dispatcher cannot exist (there is one), but be
             idempotent anyway *)
          let e = match Hashtbl.find_opt t.cache key with Some e' -> e' | None -> Hashtbl.replace t.cache key e; e in
          Mutex.unlock t.mutex;
          Result.Ok (e, false)
      | exception Error.Error err -> Result.Error err)

let answer entry (req : P.request) =
  match req.P.query with
  | P.Accepts player ->
      let value =
        match player with
        | Game.Eve ->
            Game.sigma_accepts ~engine:req.engine entry.arbiter entry.graph ~ids:entry.ids
              ~universes:entry.universes
        | Game.Adam ->
            Game.pi_accepts ~engine:req.engine entry.arbiter entry.graph ~ids:entry.ids
              ~universes:entry.universes
      in
      Result.Ok value
  | P.Check certs ->
      let n = G.card entry.graph in
      let levels = entry.arbiter.Arbiter.levels in
      if List.length certs <> levels then
        Error.protocol_error ~what "check carries %d certificate levels, arbiter %s expects %d"
          (List.length certs) entry.arbiter.Arbiter.name levels;
      List.iteri
        (fun l k ->
          if Array.length k <> n then
            Error.protocol_error ~what
              "level %d certificate assignment covers %d nodes, graph has %d" l (Array.length k) n)
        certs;
      Result.Ok (entry.arbiter.Arbiter.accepts entry.graph ~ids:entry.ids ~certs)

let expired job now =
  match job.deadline with Some (at, _) -> now >= at | None -> false

let run_job t entry hit ({ req; reply; _ } as job) =
  let t0 = Unix.gettimeofday () in
  if expired job t0 then begin
    let ms = match job.deadline with Some (_, ms) -> ms | None -> 0 in
    Mutex.lock t.mutex;
    t.s_expired <- t.s_expired + 1;
    Mutex.unlock t.mutex;
    reply
      {
        P.id = req.P.id;
        outcome =
          Result.Error
            (Error.Deadline_exceeded
               { what; deadline_ms = ms; detail = "request expired before execution" });
        cache_hit = false;
        micros = 0;
      }
  end
  else begin
    let outcome =
      match answer entry req with
      | r -> r
      | exception Error.Error e -> Result.Error e
      | exception e ->
          Result.Error
            (Error.Protocol_error
               { what; detail = "engine failure: " ^ Printexc.to_string e; round = None; node = None })
    in
    let micros = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    reply { P.id = req.P.id; outcome; cache_hit = hit; micros = max 0 micros }
  end

let fail_job err { req; reply; _ } =
  reply { P.id = req.P.id; outcome = Result.Error err; cache_hit = false; micros = 0 }

(* One drained batch: group by key (arrival order kept inside groups),
   resolve each group's entry, fan the groups out over the domain pool. *)
let process t batch =
  let order = ref [] in
  let groups : (string, job list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun job ->
      let key = P.key job.req in
      match Hashtbl.find_opt groups key with
      | Some jobs -> jobs := job :: !jobs
      | None ->
          Hashtbl.add groups key (ref [ job ]);
          order := key :: !order)
    batch;
  let grouped =
    List.rev_map (fun key -> List.rev !(Hashtbl.find groups key)) !order
  in
  ignore
    (Parallel.map
       (fun jobs ->
         (* One group's failure — typed or not — must stay that group's:
            every job still gets a typed response and the dispatcher
            keeps draining the other groups. *)
         try
           match jobs with
           | [] -> ()
           | first :: _ -> (
               match resolve_entry t first.req with
               | Result.Ok (entry, hit) ->
                   List.iteri (fun i job -> run_job t entry (hit || i > 0) job) jobs
               | Result.Error err -> List.iter (fail_job err) jobs)
         with e ->
           let err =
             match e with
             | Error.Error err -> err
             | e ->
                 Error.Protocol_error
                   {
                     what;
                     detail = "group failure: " ^ Printexc.to_string e;
                     round = None;
                     node = None;
                   }
           in
           List.iter (fun job -> try fail_job err job with _ -> ()) jobs)
       grouped);
  (* re-cost what this batch touched, then enforce the bound *)
  Mutex.lock t.mutex;
  Hashtbl.iter (fun _ e -> if e.last_used = t.tick then e.cost <- entry_cost e) t.cache;
  enforce_cap t;
  Mutex.unlock t.mutex

let dispatch_loop t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while t.queue = [] && not t.stop do
      Condition.wait t.wake t.mutex
    done;
    if t.queue = [] then Mutex.unlock t.mutex (* stopped and drained *)
    else begin
      let batch = List.rev t.queue in
      t.queue <- [];
      t.tick <- t.tick + 1;
      t.s_batches <- t.s_batches + 1;
      t.s_requests <- t.s_requests + List.length batch;
      Mutex.unlock t.mutex;
      (* last-ditch: the per-group handler already answers every job,
         so anything reaching here is re-costing noise — never let it
         kill the dispatcher *)
      (try process t batch with _ -> ());
      loop ()
    end
  in
  loop ()

let create ?cache_mb ?queue_cap () =
  let mb = match cache_mb with Some m -> m | None -> cache_mb_env () in
  if mb < 1 then invalid_arg "Scheduler.create: cache_mb must be positive";
  let queue_cap = match queue_cap with Some _ as c -> c | None -> queue_cap_env () in
  (match queue_cap with
  | Some c when c < 1 -> invalid_arg "Scheduler.create: queue_cap must be positive"
  | _ -> ());
  Parallel.prewarm ();
  let t =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = [];
      stop = false;
      cache = Hashtbl.create 16;
      cap_bytes = mb * 1024 * 1024;
      queue_cap;
      s_overloads = 0;
      s_expired = 0;
      tick = 0;
      s_requests = 0;
      s_batches = 0;
      s_hits = 0;
      s_misses = 0;
      s_evictions = 0;
      dispatcher = None;
    }
  in
  t.dispatcher <- Some (Thread.create (dispatch_loop t) ());
  t

let submit ?deadline_ms t req ~reply =
  let deadline_ms = match deadline_ms with Some _ as d -> d | None -> timeout_ms_env () in
  let deadline =
    match deadline_ms with
    | Some ms -> Some (Unix.gettimeofday () +. (float_of_int ms /. 1000.), ms)
    | None -> None
  in
  let job = { req; reply; deadline } in
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    fail_job
      (Error.Protocol_error { what; detail = "scheduler is shut down"; round = None; node = None })
      job
  end
  else
    match t.queue_cap with
    | Some cap when List.length t.queue >= cap ->
        t.s_overloads <- t.s_overloads + 1;
        Mutex.unlock t.mutex;
        fail_job (Error.Overloaded { what; detail = Printf.sprintf "queue is at its cap of %d" cap })
          job
    | _ ->
        t.queue <- job :: t.queue;
        Condition.signal t.wake;
        Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  match t.dispatcher with
  | Some th ->
      t.dispatcher <- None;
      Thread.join th
  | None -> ()

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      requests = t.s_requests;
      batches = t.s_batches;
      cache_hits = t.s_hits;
      cache_misses = t.s_misses;
      evictions = t.s_evictions;
      entries = Hashtbl.length t.cache;
      overloads = t.s_overloads;
      expired = t.s_expired;
    }
  in
  Mutex.unlock t.mutex;
  s

let cap_bytes t = t.cap_bytes
