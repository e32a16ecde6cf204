module G = Labeled_graph

(* Hashed by uid, compared physically: the uid only spreads graphs over
   buckets, a graph's entries are its own. *)
module Graph_key = struct
  type t = G.t

  let equal = ( == )
  let hash = G.uid
end

module Table = Ephemeron.K1.Make (Graph_key)

(* A value, once set, is never replaced, so readers that find one need
   no lock: the entry lock only serialises the compute. *)
type 'v entry = { lock : Mutex.t; value : 'v option Atomic.t }

type ('k, 'v) t = { lock : Mutex.t; graphs : ('k, 'v entry) Hashtbl.t Table.t }

let create () = { lock = Mutex.create (); graphs = Table.create 16 }

let entry t g key =
  Mutex.protect t.lock (fun () ->
      let per_graph =
        match Table.find_opt t.graphs g with
        | Some entries -> entries
        | None ->
            let entries = Hashtbl.create 4 in
            Table.replace t.graphs g entries;
            entries
      in
      match Hashtbl.find_opt per_graph key with
      | Some e -> e
      | None ->
          let e = { lock = Mutex.create (); value = Atomic.make None } in
          Hashtbl.add per_graph key e;
          e)

let find_or_add t g key compute =
  let e = entry t g key in
  match Atomic.get e.value with
  | Some v -> v
  | None ->
      Mutex.protect e.lock (fun () ->
          match Atomic.get e.value with
          | Some v -> v
          | None ->
              let v = compute () in
              Atomic.set e.value (Some v);
              v)

(* Values are read without their entry locks, so a slow compute never
   stalls a fold; an entry still computing is simply not there yet. *)
let fold t g f init =
  Mutex.protect t.lock (fun () ->
      match Table.find_opt t.graphs g with
      | None -> init
      | Some entries ->
          Hashtbl.fold
            (fun k e acc -> match Atomic.get e.value with Some v -> f k v acc | None -> acc)
            entries init)
