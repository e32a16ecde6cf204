module G = Lph_graph.Labeled_graph
module Certs = Lph_graph.Certificates

type t = {
  name : string;
  verdicts :
    G.t ->
    ids:Lph_graph.Identifiers.t ->
    prefix:Certs.t list ->
    candidate:Certs.t ->
    bool array;
}

let trivial =
  { name = "trivial"; verdicts = (fun g ~ids:_ ~prefix:_ ~candidate:_ -> Array.make (G.card g) true) }

let per_node ~name check =
  {
    name;
    verdicts =
      (fun g ~ids ~prefix:_ ~candidate ->
        Array.init (G.card g) (fun u ->
            let ctx =
              {
                Lph_machine.Local_algo.label = G.label g u;
                ident = ids.(u);
                certs = [ candidate.(u) ];
                cert_list = candidate.(u);
                degree = G.degree g u;
                charge = (fun _ -> ());
              }
            in
            check ctx candidate.(u)));
  }

let accepts_all t g ~ids ~prefix ~candidate =
  Array.for_all Fun.id (t.verdicts g ~ids ~prefix ~candidate)

let locally_repairable t g ~ids ~prefix_universe ~universe =
  let n = G.card g in
  let candidates = List.of_seq (Game.assignments ~n universe) in
  List.for_all
    (fun prefix ->
      List.for_all
        (fun candidate ->
          let verdicts = t.verdicts g ~ids ~prefix ~candidate in
          List.for_all
            (fun u ->
              verdicts.(u)
              ||
              (* a rejecting node must be able to fix its own certificate
                 without disturbing anyone else's verdict *)
              List.exists
                (fun replacement ->
                  let patched = Array.copy candidate in
                  patched.(u) <- replacement;
                  let verdicts' = t.verdicts g ~ids ~prefix ~candidate:patched in
                  verdicts'.(u)
                  && List.for_all
                       (fun v -> v = u || verdicts'.(v) = verdicts.(v))
                       (G.nodes g))
                (universe u))
            (G.nodes g))
        candidates)
    prefix_universe

let restricted_game ~first ~arbiter ~restrictors g ~ids ~universes =
  if List.length restrictors <> List.length universes then
    invalid_arg "Restrictor.restricted_game: one restrictor per level";
  let n = G.card g in
  let rec go player levels chosen =
    match levels with
    | [] -> arbiter.Arbiter.accepts g ~ids ~certs:(List.rev chosen)
    | (universe, restrictor) :: rest ->
        let admissible =
          Seq.filter
            (fun candidate ->
              accepts_all restrictor g ~ids ~prefix:(List.rev chosen) ~candidate)
            (Game.assignments ~n universe)
        in
        let continue k = go (Game.opponent player) rest (k :: chosen) in
        begin
          match player with
          | Game.Eve -> Seq.exists continue admissible
          | Game.Adam -> Seq.for_all continue admissible
        end
  in
  go first (List.combine universes restrictors) []

let lemma8_convert ~restrictors ~first (arbiter : Arbiter.t) =
  let levels = List.length restrictors in
  if levels <> arbiter.Arbiter.levels then
    invalid_arg "Restrictor.lemma8_convert: one restrictor per arbiter level";
  let accepts g ~ids ~certs =
    if List.length certs <> levels then
      invalid_arg "Restrictor.lemma8_convert: wrong number of certificate assignments";
    (* find the first violated level; its quantifier polarity decides *)
    let rec scan i player prefix = function
      | [] -> arbiter.Arbiter.accepts g ~ids ~certs
      | candidate :: rest ->
          let restrictor = List.nth restrictors i in
          if accepts_all restrictor g ~ids ~prefix:(List.rev prefix) ~candidate then
            scan (i + 1) (Game.opponent player) (candidate :: prefix) rest
          else begin
            (* an invalid existential certificate loses for Eve; an
               invalid universal certificate loses for Adam *)
            match player with Game.Eve -> false | Game.Adam -> true
          end
    in
    scan 0 first [] certs
  in
  (* the restrictor wrapper reads whole-prefix validity, which is not
     a ball-local property, so the converted arbiter cannot prune *)
  Arbiter.opaque ~name:(arbiter.Arbiter.name ^ "+lemma8") ~levels
    ~id_radius:arbiter.Arbiter.id_radius ~cert_bound:arbiter.Arbiter.cert_bound accepts
