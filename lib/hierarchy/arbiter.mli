(** Arbiters (Section 4): the machines that determine the winner of the
    Eve/Adam certificate game. An arbiter is any machine that, given a
    graph, an identifier assignment and a list of certificate
    assignments (one per quantifier level), reaches a unanimous
    verdict. Local algorithms and distributed Turing machines both
    provide arbiters.

    Arbiters additionally expose their {e dependency structure}: a
    {!locality} of [Ball r] declares that every node's verdict depends
    only on the radius-[r] view around it, which lets the game solver
    ({!Game.solve_pruned}) reject partial certificate assignments as
    soon as one fully-assigned ball rejects. [Opaque] arbiters fall
    back to plain enumeration ({!Game.solve}). *)

type locality =
  | Opaque  (** verdicts may depend on the whole graph: never prune *)
  | Ball of int
      (** [Ball r]: node [u]'s verdict is a function of the induced
          subgraph [N_r(u)] with its labels, identifiers, certificates
          and [u]'s own degree *)

type t = {
  id : int;
      (** fixed when the arbiter is built ({!of_local_algo},
          {!of_turing}, {!opaque}) and unique to that construction;
          compiled-game and duel caches key on it, because names alias.
          A record update keeps the id of the arbiter it copies. *)
  name : string;
  levels : int;  (** ℓ: number of certificate assignments expected *)
  id_radius : int;  (** r_id: required local uniqueness of identifiers *)
  cert_bound : Lph_graph.Certificates.bound option;
      (** the (r, p) bound the arbiter's quantifiers range over, when
          one is declared *)
  locality : locality;
  oblivious : bool;
      (** declared identifier use: [true] claims every verdict is the
          same on isomorphic labelled balls whatever their identifiers,
          so the ball checker shares one verdict per ball type across
          centres and graphs. {!of_local_algo} copies it from the
          algorithm ({!Lph_machine.Local_algo.oblivious}); {!of_turing}
          and {!opaque} set [false]. The checker is keyed when the
          arbiter is built: a record update of this flag does not
          re-key it (lint's [arbiter/ids-oblivious] rule still probes
          the updated claim). *)
  verdicts :
    (Lph_graph.Labeled_graph.t ->
    ids:Lph_graph.Identifiers.t ->
    certs:Lph_graph.Certificates.t list ->
    bool array)
    option;
      (** per-node verdicts (acceptance is their conjunction); required
          by {!ball_checker}, optional for hand-rolled arbiters *)
  checker :
    Lph_graph.Labeled_graph.t ->
    ids:Lph_graph.Identifiers.t ->
    (int -> certs:Lph_graph.Certificates.t list -> bool) option;
      (** the locality checker behind {!ball_checker}; hand-rolled
          arbiters should use {!opaque_checker}. The CNF compiler and
          pruned search still ask every verdict they tabulate through
          it, once per (ball type, row), so a record update that wraps
          it sees each of those calls. *)
  accepts :
    Lph_graph.Labeled_graph.t ->
    ids:Lph_graph.Identifiers.t ->
    certs:Lph_graph.Certificates.t list ->
    bool;
}

val of_local_algo :
  id_radius:int -> ?cert_bound:Lph_graph.Certificates.bound -> Lph_machine.Local_algo.packed -> t
(** Wrap a local algorithm; [levels] is taken from the algorithm,
    [locality] from its declared radius ({!Lph_machine.Local_algo.radius})
    and [oblivious] from its identifier-use declaration.
    The certificate assignments are joined into a certificate-list
    assignment before running, as in the paper. *)

val of_turing :
  levels:int ->
  id_radius:int ->
  ?cert_bound:Lph_graph.Certificates.bound ->
  ?verify_radius:int ->
  Lph_machine.Turing.t ->
  t
(** [verify_radius] declares the machine's verification locality (the
    caller's responsibility to get right — an under-declared radius
    makes pruning unsound). Omitted means [Opaque]. *)

val opaque :
  name:string ->
  levels:int ->
  id_radius:int ->
  cert_bound:Lph_graph.Certificates.bound option ->
  (Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  certs:Lph_graph.Certificates.t list ->
  bool) ->
  t
(** An arbiter known only by its acceptance function: [Opaque]
    locality, no per-node verdicts, so engines never prune it. *)

val decider_accepts : t -> Lph_graph.Labeled_graph.t -> ids:Lph_graph.Identifiers.t -> bool
(** Run a 0-level arbiter (an LP-decider candidate). *)

val opaque_checker :
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  (int -> certs:Lph_graph.Certificates.t list -> bool) option
(** Always [None]: the [checker] of an arbiter that cannot prune. *)

val ball_checker :
  t ->
  Lph_graph.Labeled_graph.t ->
  ids:Lph_graph.Identifiers.t ->
  (int -> certs:Lph_graph.Certificates.t list -> bool) option
(** [ball_checker t g ~ids] is [Some check] when [t] declares [Ball r]
    locality and per-node verdicts; [check u ~certs] then evaluates
    node [u]'s verdict on the induced neighbourhood [N_{max r 1}(u)]
    alone (radius at least 1 so the centre keeps its true degree),
    with certificates outside [N_r(u)] canonicalised to [""].
    For a radius-[r] verifier this equals the verdict of [u] in the
    whole-graph run, for any extension of the certificates — the
    soundness basis of pruned search (see DESIGN.md).

    Verdicts are memoised per ball type ({!Lph_graph.Ball_type}): the
    ball up to isomorphisms that fix the centre and preserve labels,
    and identifiers unless [t] was built oblivious, together with the
    members' certificates in the type's canonical order. The table
    belongs to the arbiter and outlives graphs, so an oblivious
    verifier runs once per ball type and certificate pattern across
    every centre, solve and graph; a miss runs on [u]'s own ball and
    identifiers. Each centre's type is found once per (graph, radius,
    identifier use), in filings shared with {!ball_type} that die with
    the graph. The closure is safe to call from parallel domains. *)

val ball_type :
  t -> Lph_graph.Labeled_graph.t -> ids:Lph_graph.Identifiers.t -> int -> int * int array
(** [ball_type t g ~ids u] is the ball type the checker keys [u]'s
    verdicts on, with the nodes of [N_r(u)] in the type's canonical
    order, where [Ball r] is the locality the record declares now (a
    record update of [locality] types at the new radius). Identifiers
    are part of the type unless the record is [oblivious]. Equal types
    mean an isomorphism of the balls [N_{max r 1}] that fixes the
    centres, preserves labels (and identifiers) and carries one order
    onto the other, so a verdict tabulated at one centre holds at every
    centre of its type for the corresponding certificates — the basis
    of per-type compilation ({!Game_sat}) and of pruned search's
    per-call tables. Typing shares the checker's per-graph filings:
    each centre is typed once per (graph, radius, identifier use), and
    [checker] itself is unchanged. Partially apply to [g] and [ids]
    once; the closure is safe to call from parallel domains. Raises
    [Invalid_argument] when [t] is [Opaque]. *)
