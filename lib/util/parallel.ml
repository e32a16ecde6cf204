(* A small work-pool on OCaml 5 domains (stdlib only).

   Tasks are list elements; workers pull indices from an atomic counter
   and write results into a slot array, so results always come back in
   input order regardless of which domain ran what.

   Nested calls (a parallel sweep whose tasks themselves run the
   parallel runner) run sequentially in the inner layer instead of
   spawning domains quadratically.

   Helper domains are PERSISTENT: the first parallel call spawns a
   shared worker team which later calls ([map] and [with_team]
   alike) re-dispatch onto through a condition-variable barrier, so a
   long-lived process — the serve daemon dispatching thousands of
   batches — pays the domain-spawn cost once, not per call. The shared
   team is leased with a try-lock: a second thread arriving while the
   team is busy falls back to spawning its own throwaway workers
   ([drive]), preserving the determinism contract under concurrency. *)

let default_cap = 4

let jobs () =
  match Sys.getenv_opt "LPH_JOBS" with
  | None | Some "" -> min default_cap (Domain.recommended_domain_count ())
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> invalid_arg "Parallel: LPH_JOBS must be a positive integer")

let inside_pool = Domain.DLS.new_key (fun () -> false)

(* Every domain spawn in this module goes through [spawn] so tests can
   assert reuse: a warmed pool serves any number of calls without the
   counter moving. *)
let total_spawned = Atomic.make 0

let spawn f =
  Atomic.incr total_spawned;
  Domain.spawn f

let domains_spawned () = Atomic.get total_spawned

(* Run [task i] for every index, at most [jobs] at a time. [task] must
   itself decide what to record. The first exception from any worker
   ends the run early and is re-raised in the caller. The
   throwaway-domain path, used only when the shared team is busy. *)
let drive ~jobs:j ~n task =
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let worker () =
    Domain.DLS.set inside_pool true;
    let rec loop () =
      if Atomic.get failure = None then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (try task i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      end
    in
    loop ()
  in
  let helpers = List.init (min (j - 1) (max 0 (n - 1))) (fun _ -> spawn worker) in
  worker ();
  List.iter Domain.join helpers;
  Domain.DLS.set inside_pool false;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let effective_jobs j =
  if Domain.DLS.get inside_pool then 1 else match j with Some j -> j | None -> jobs ()

(* A persistent worker team for batch-structured workloads: domains are
   spawned once and re-dispatched every batch through a
   condition-variable barrier, so a batch costs two broadcasts instead
   of [jobs - 1] domain spawns. *)

type team = {
  jobs : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable epoch : int; (* bumped once per team_iter batch *)
  mutable shutdown : bool;
  mutable n : int;
  mutable task : int -> unit;
  next : int Atomic.t;
  mutable active : int; (* helpers still working on the current epoch *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable helpers : unit Domain.t list;
}

let team_jobs t = t.jobs

let make_team j =
  {
    jobs = j;
    mutex = Mutex.create ();
    start = Condition.create ();
    finished = Condition.create ();
    epoch = 0;
    shutdown = false;
    n = 0;
    task = ignore;
    next = Atomic.make 0;
    active = 0;
    failure = None;
    helpers = [];
  }

(* Pull indices until exhausted; the first failure is recorded and ends
   the batch early (the counter is pushed past [n]). *)
let team_pull t =
  let rec go () =
    let i = Atomic.fetch_and_add t.next 1 in
    if i < t.n then begin
      (try t.task i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if t.failure = None then t.failure <- Some (e, bt);
         Mutex.unlock t.mutex;
         Atomic.set t.next t.n);
      go ()
    end
  in
  go ()

let team_helper t () =
  Domain.DLS.set inside_pool true;
  Mutex.lock t.mutex;
  let seen = ref 0 in
  let rec loop () =
    while (not t.shutdown) && t.epoch = !seen do
      Condition.wait t.start t.mutex
    done;
    if not t.shutdown then begin
      seen := t.epoch;
      Mutex.unlock t.mutex;
      team_pull t;
      Mutex.lock t.mutex;
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.finished;
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let spawn_helpers t = t.helpers <- List.init (t.jobs - 1) (fun _ -> spawn (team_helper t))

let teardown t =
  Mutex.lock t.mutex;
  t.shutdown <- true;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.helpers;
  t.helpers <- []

let team_iter t n task =
  if t.jobs <= 1 then
    for i = 0 to n - 1 do
      task i
    done
  else begin
    Mutex.lock t.mutex;
    t.n <- n;
    t.task <- task;
    t.failure <- None;
    Atomic.set t.next 0;
    t.active <- t.jobs - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    (* the calling domain participates; its tasks count as inside the
       pool so nested calls degrade to sequential *)
    let was_inside = Domain.DLS.get inside_pool in
    Domain.DLS.set inside_pool true;
    team_pull t;
    Domain.DLS.set inside_pool was_inside;
    Mutex.lock t.mutex;
    while t.active > 0 do
      Condition.wait t.finished t.mutex
    done;
    let failure = t.failure in
    Mutex.unlock t.mutex;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ---- the shared team ------------------------------------------------

   [shared_busy] is the lease: held from [acquire] to [release], so at
   most one caller dispatches on the shared helpers at a time.
   [shared_state] only guards the ref itself. A caller that cannot get
   the lease (another thread is mid-batch) gets [None] and uses
   throwaway domains instead — never blocks, never deadlocks, same
   results. Changing [LPH_JOBS] between calls retires the old team
   (helpers are joined under the lease, when no batch is in flight) and
   spawns a fresh one at the new width. *)

let shared_busy = Mutex.create ()

let shared_state = Mutex.create ()

let shared : team option ref = ref None

let shutdown_registered = ref false

(* Joined at exit so helper domains never outlive main. If some thread
   still holds the lease at exit, skip: the runtime tears the process
   down regardless, and joining would hang. *)
let shutdown_shared () =
  if Mutex.try_lock shared_busy then begin
    Mutex.lock shared_state;
    (match !shared with Some t -> teardown t | None -> ());
    shared := None;
    Mutex.unlock shared_state;
    Mutex.unlock shared_busy
  end

let acquire j =
  if j <= 1 then None
  else if Mutex.try_lock shared_busy then
    let t =
      Mutex.protect shared_state (fun () ->
          match !shared with
          | Some t when t.jobs = j -> t
          | prev ->
              (match prev with Some t -> teardown t | None -> ());
              let t = make_team j in
              spawn_helpers t;
              shared := Some t;
              if not !shutdown_registered then begin
                shutdown_registered := true;
                at_exit shutdown_shared
              end;
              t)
    in
    Some t
  else None

let release () = Mutex.unlock shared_busy

let prewarm ?jobs:j () =
  match acquire (effective_jobs j) with Some _ -> release () | None -> ()

(* Dispatch one batch: on the shared team when the lease is free, on
   throwaway domains otherwise. *)
let run_batch ~jobs:j ~n task =
  match acquire j with
  | Some t -> Fun.protect ~finally:release (fun () -> team_iter t n task)
  | None -> drive ~jobs:j ~n task

let map ?jobs:j f xs =
  let j = effective_jobs j in
  if j <= 1 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    run_batch ~jobs:j ~n (fun i -> out.(i) <- Some (f arr.(i)));
    List.init n (fun i -> match out.(i) with Some y -> y | None -> assert false)
  end

let with_team ?jobs:j f =
  let j = effective_jobs j in
  if j <= 1 then f (make_team j)
  else
    match acquire j with
    | Some t -> Fun.protect ~finally:release (fun () -> f t)
    | None ->
        let t = make_team j in
        spawn_helpers t;
        Fun.protect ~finally:(fun () -> teardown t) (fun () -> f t)
