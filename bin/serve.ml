(* lph-serve: the hierarchy-as-a-service daemon.

   Binds a Unix-domain socket and answers game/classification queries
   over the length-prefixed wire protocol (lib/serve), sharing compiled
   CNF/CEGAR instances and neighbourhood memos across all requests and
   connections, LRU-bounded by LPH_SERVE_CACHE_MB.

   usage: serve.exe --socket PATH [--cache-mb N] [--quiet]

   Runs until SIGINT/SIGTERM; prints a stats line on shutdown. *)

open Lph_core

let usage = "usage: serve.exe --socket PATH [--cache-mb N] [--quiet]"

let socket = ref ""
let cache_mb = ref 0
let quiet = ref false

let () =
  Arg.parse
    [
      ("--socket", Arg.Set_string socket, "PATH Unix-domain socket to listen on (required)");
      ("--cache-mb", Arg.Set_int cache_mb, "N entry-cache bound in MB (default LPH_SERVE_CACHE_MB or 256)");
      ("--quiet", Arg.Set quiet, " no startup/shutdown chatter");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !socket = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let server =
    Serve_server.start
      ?cache_mb:(if !cache_mb > 0 then Some !cache_mb else None)
      ~socket:!socket ()
  in
  if not !quiet then
    Printf.printf "lph-serve: listening on %s (cache %d MB, %d jobs)\n%!" !socket
      (Serve_scheduler.cap_bytes (Serve_server.scheduler server) / (1024 * 1024))
      (Parallel.jobs ());
  (* A handler can only set a flag: it runs at a safepoint, and every
     other thread here blocks in syscalls, so the main thread polls. *)
  let stop_now = Atomic.make false in
  let request_stop _ = Atomic.set stop_now true in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle request_stop) with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  while not (Atomic.get stop_now) do
    Thread.delay 0.2
  done;
  let s = Serve_server.stats server in
  Serve_server.stop server;
  if not !quiet then
    Printf.printf
      "lph-serve: stopped after %d requests in %d batches (%d hits, %d misses, %d evictions, %d resident)\n%!"
      s.Serve_scheduler.requests s.Serve_scheduler.batches s.Serve_scheduler.cache_hits
      s.Serve_scheduler.cache_misses s.Serve_scheduler.evictions s.Serve_scheduler.entries
