(** Labelled graphs as defined in Section 3: finite, simple, undirected,
    connected, with a labelling function assigning a bit string to each
    node. Nodes are integers [0 .. card - 1].

    The adjacency is stored in CSR (compressed sparse row) form — packed
    int arrays of row offsets and sorted targets — so [degree] and
    [num_edges] are O(1), [has_edge] is a binary search,
    [neighbours_iter]/[fold_neighbours] scan a row without allocating,
    and instances scale to 10^5–10^6 nodes. The canonical edge list is
    derived lazily; hot paths should prefer {!iter_edges}. *)

type t

exception Invalid of string
(** Raised by {!make} when the input is not a valid labelled graph
    (disconnected, self-loop, out-of-range node, non-bit label...). *)

val make : labels:string array -> edges:(int * int) list -> t
(** [make ~labels ~edges] builds the graph on [Array.length labels]
    nodes. Edges are unordered; duplicates and reversed duplicates are
    rejected. Requires at least one node, connectivity, no self-loops,
    and every label to be a bit string. *)

val of_edge_array : labels:string array -> edges:(int * int) array -> t
(** Same contract as {!make} on a packed edge array: the construction
    path for generators at 10^5+ nodes (no intermediate list). The
    array is not retained. *)

val singleton : string -> t
(** The single-node graph carrying the given label: the paper's
    representation of a string as a graph (the class NODE). *)

val uid : t -> int
(** A session-unique identity assigned per construction: the hash
    under which {!Graph_memo} files a graph's derived data. Structurally
    equal graphs built by separate [make] calls have distinct uids. *)

val card : t -> int
val nodes : t -> int list
(** [0 .. card - 1] as a list; O(n) allocation — iterate with
    {!iter_nodes}/{!fold_nodes} on large instances. *)

val iter_nodes : t -> (int -> unit) -> unit
val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val edges : t -> (int * int) list
(** Each undirected edge reported once, as [(u, v)] with [u < v],
    sorted. Derived lazily from the CSR rows and cached on first use. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per undirected edge ([u < v],
    ascending), straight off the packed rows — no list allocation. *)

val num_edges : t -> int
val has_edge : t -> int -> int -> bool
(** Binary search in the sorted CSR row: O(log deg). *)

val neighbours : t -> int -> int list
(** Sorted by node index. Allocates a fresh list; hot paths should use
    {!neighbours_iter} or {!fold_neighbours}. *)

val neighbours_iter : t -> int -> (int -> unit) -> unit
(** Apply a function to each neighbour in ascending order, allocation
    free. *)

val fold_neighbours : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val degree : t -> int -> int
(** O(1): the CSR row length. *)

val label : t -> int -> string
val labels : t -> string array
(** A fresh copy of the labelling. *)

val with_labels : t -> string array -> t
(** Same topology, new labelling (checked). The packed adjacency is
    shared with the original graph — O(n), never O(m log m). *)

val map_labels : (int -> string -> string) -> t -> t

val is_node_graph : t -> bool
(** Membership in NODE: exactly one node. *)

val all_labels_one : t -> bool
(** The property ALL-SELECTED: every node labelled with the string "1". *)

val max_degree : t -> int
val equal : t -> t -> bool
(** Same node set, edges and labels (not isomorphism). *)

val pp : Format.formatter -> t -> unit

val union_disjoint : t -> t -> bridge:(int * int) list -> t
(** [union_disjoint g h ~bridge] places [h] after [g] (nodes of [h]
    shifted by [card g]) and adds the [bridge] edges, given as pairs
    [(u_in_g, v_in_h)] with original indices. The result must be
    connected ([bridge] must be non-empty). *)
