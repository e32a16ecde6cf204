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
    back to exhaustive search. *)

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
          arbiters should use {!opaque_checker} *)
  accepts :
    Lph_graph.Labeled_graph.t ->
    ids:Lph_graph.Identifiers.t ->
    certs:Lph_graph.Certificates.t list ->
    bool;
}

val of_local_algo :
  id_radius:int -> ?cert_bound:Lph_graph.Certificates.bound -> Lph_machine.Local_algo.packed -> t
(** Wrap a local algorithm; [levels] is taken from the algorithm, and
    [locality] from its declared radius ({!Lph_machine.Local_algo.radius}).
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

    Neighbourhood extractions and ball verdicts are cached inside the
    arbiter (per graph and identifier assignment, memoised on ball
    certificate contents), so repeated solves against the same arbiter
    reuse each distinct ball configuration; a graph's share dies with
    the graph. The closure is safe to call from parallel domains. *)
