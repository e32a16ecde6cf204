(** Memo tables for data derived from one graph. Graphs are immutable
    after construction, so anything computed from a graph (balls,
    compiled game CNFs, certificate-length rows, optima) stays valid for
    the graph's whole life — and no longer. A store keys its entries on
    (graph, key) and hangs each graph's entries off an ephemeron on the
    graph itself: when the last reference to a graph goes, the next
    major collection reclaims everything derived from it. There is no
    size bound, no reset and no eviction call; a process that wants the
    memory back drops the graph.

    Safe to share across domains. Each (graph, key) is computed exactly
    once: a store-wide lock guards only the find-or-insert of the entry
    record, and the compute runs under that entry's own lock, so
    distinct keys compute concurrently and racers for the same key wait
    for the first. *)

type ('k, 'v) t
(** A store from (graph, ['k]) to ['v]. Keys are compared with
    structural equality and hashed with {!Hashtbl.hash}; graphs by
    physical identity. *)

val create : unit -> ('k, 'v) t

val find_or_add : ('k, 'v) t -> Labeled_graph.t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t g key compute]: the value stored for [(g, key)],
    running [compute] to produce it on the first call. If [compute]
    raises, the exception propagates and the entry stays empty for the
    next caller. [compute] must not ask the same store for the same
    [(g, key)]. *)

val fold : ('k, 'v) t -> Labeled_graph.t -> ('k -> 'v -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over the values stored for one graph, in no particular order.
    Entries whose compute is still running or has failed are skipped.
    The fold holds the store-wide lock, so [f] must not use the store. *)
