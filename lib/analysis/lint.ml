module G = Lph_graph.Labeled_graph
module N = Lph_graph.Neighborhood
module Ids = Lph_graph.Identifiers
module Certs = Lph_graph.Certificates
module C = Lph_util.Codec
module Poly = Lph_util.Poly
module Arbiter = Lph_hierarchy.Arbiter
module Syntax = Lph_logic.Syntax
module Compile = Lph_fagin.Compile
module Cluster = Lph_reductions.Cluster
module Runner = Lph_machine.Runner
module D = Diagnostic

type report = {
  arbiters : int;
  formulas : int;
  reductions : int;
  codecs : int;
  faults : int;
  diagnostics : D.t list;
  optima : Optimum.result list;
  reduction_checks : Cert_reduction.check list;
}

let collector spec =
  let diags = ref [] in
  let add rule severity message = diags := D.make ~spec ~rule ~severity message :: !diags in
  (diags, add)

(* printf-style front end; a top-level function so each call site gets
   its own format instantiation *)
let addf add rule severity fmt = Printf.ksprintf (add rule severity) fmt

let pp_violation (v : Probe.violation) =
  Printf.sprintf "node %d of probe sample %d: %s" v.Probe.node v.Probe.graph_index
    v.Probe.detail

(* ------------------------------------------------------------------ *)
(* arbiters: radius declaration, soundness, tightness / static bound,
   message accounting *)

let analyze_radius add (spec : Registry.arbiter_spec) samples =
  let a = spec.Registry.arbiter in
  match a.Arbiter.locality with
  | Arbiter.Opaque -> begin
      addf add D.Radius_declared D.Error
        "arbiter declares no verification radius (Opaque locality): locality pruning is \
         disabled and the constant-radius side condition is unchecked";
      (* still probe, to tell the author what to declare *)
      match (Probe.infer ~max_radius:spec.Registry.max_radius a samples).Probe.inferred with
      | Some r -> addf add D.Radius_declared D.Info "probing suggests declaring radius %d" r
      | None -> ()
    end
  | Arbiter.Ball declared -> begin
      match spec.Registry.expectation with
      | Registry.Static expected -> begin
          if declared <> expected then
            addf add D.Radius_expected D.Error
              "declared radius %d differs from the quantifier-derived bound %d" declared
              expected;
          match Probe.consistent_at ~radius:declared a samples with
          | None -> ()
          | Some v ->
              addf add D.Radius_sound D.Error "declared radius %d is unsound: %s" declared
                (pp_violation v)
        end
      | Registry.Probed -> begin
          let outcome = Probe.infer ~max_radius:spec.Registry.max_radius a samples in
          (match List.assoc_opt declared outcome.Probe.results with
          | Some (Some v) ->
              addf add D.Radius_sound D.Error "declared radius %d is unsound: %s" declared
                (pp_violation v)
          | Some None | None -> ());
          match outcome.Probe.inferred with
          | Some r when r < declared ->
              addf add D.Radius_tight D.Warning
                "radius %d survives the same probes: the declaration %d over-approximates \
                 the spec's locality (sound, but prunes less)"
                r declared
          | _ -> ()
        end
    end

let analyze_messages add (spec : Registry.arbiter_spec) samples =
  match (spec.Registry.algo, spec.Registry.msg_bound) with
  | Some packed, Some bound ->
      let radius =
        match spec.Registry.arbiter.Arbiter.locality with
        | Arbiter.Ball r -> max r 1
        | Arbiter.Opaque -> 1
      in
      let bad = ref None in
      List.iter
        (fun (s : Probe.sample) ->
          if !bad = None then begin
            let g = s.Probe.graph in
            let ids = Ids.make_global g in
            let cert_list =
              match s.Probe.certs with [] -> None | cs -> Some (Certs.list_assignment cs)
            in
            let result = Runner.run packed g ~ids ?cert_list () in
            let stats = result.Runner.stats in
            Array.iteri
              (fun round per_node ->
                Array.iteri
                  (fun u cost ->
                    if !bad = None then begin
                      let info = N.ball_information g ~ids ~radius u in
                      if not (Poly.fits ~bound [ (info, cost) ]) then
                        bad := Some (round + 1, u, cost, info)
                    end)
                  per_node)
              stats.Runner.message_bytes
          end)
        samples;
      (match !bad with
      | Some (round, u, cost, info) ->
          addf add D.Message_size D.Error
            "round %d message cost %d at node %d exceeds the declared polynomial of its \
             %d-ball information (%d): p(%d) = %d"
            round cost u radius info info (Poly.eval bound info)
      | None -> ())
  | _ -> ()

(* An arbiter declared identifier-oblivious: every sample node's verdict
   on its induced ball must survive a rotation of the ball's
   identifiers and a rewrite to fresh ones, both still locally unique.
   [verdicts] is called directly, as the radius probe does: the
   memoised ball checker would answer from a verdict shared on the
   strength of the very declaration under test. *)
let analyze_oblivious add (a : Arbiter.t) samples =
  match (a.Arbiter.oblivious, a.Arbiter.locality, a.Arbiter.verdicts) with
  | true, Arbiter.Ball r, Some verdicts ->
      let radius = max r 1 in
      let bad = ref None in
      List.iteri
        (fun index (s : Probe.sample) ->
          let g = s.Probe.graph in
          let ids = Ids.make_global g in
          G.iter_nodes g (fun u ->
              if !bad = None then begin
                let ind = N.r_neighbourhood g ~radius u in
                let sub = ind.N.subgraph in
                let m = G.card sub in
                let keep = Array.make m false in
                List.iter
                  (fun (v, d) -> if d <= r then keep.(Option.get (ind.N.to_sub v)) <- true)
                  (N.ball_distances g ~radius u);
                let certs =
                  List.map
                    (fun (c : Certs.t) ->
                      Array.init m (fun i -> if keep.(i) then c.(ind.N.of_sub i) else ""))
                    s.Probe.certs
                in
                let centre = Option.get (ind.N.to_sub u) in
                let verdict ids = (verdicts sub ~ids ~certs).(centre) in
                let own = Array.init m (fun i -> ids.(ind.N.of_sub i)) in
                let width = Array.fold_left (fun w id -> max w (String.length id)) 0 own in
                let bits = String.length (Lph_util.Bitstring.of_int m) in
                let fresh i =
                  String.make (width + 1) '1' ^ Lph_util.Bitstring.of_int_width ~width:bits (m - 1 - i)
                in
                let base = verdict own in
                List.iter
                  (fun (how, ids') ->
                    if
                      !bad = None
                      && Ids.is_locally_unique sub ~radius:a.Arbiter.id_radius ids'
                      && verdict ids' <> base
                    then bad := Some (index, u, how))
                  [
                    ("rotated", Array.init m (fun i -> own.((i + 1) mod m)));
                    ("rewritten to fresh strings", Array.init m fresh);
                  ]
              end))
        samples;
      Option.iter
        (fun (index, u, how) ->
          addf add D.Ids_oblivious D.Error
            "node %d of probe sample %d changed its verdict when the identifiers of its \
             %d-ball were %s: the declared identifier-obliviousness is false, and the ball \
             checker would share verdicts between balls the identifiers tell apart"
            u index radius how)
        !bad
  | _ -> ()

let analyze_arbiter (spec : Registry.arbiter_spec) =
  let diags, add = collector spec.Registry.a_name in
  let a = spec.Registry.arbiter in
  if Probe.has_verdicts a then begin
    let samples =
      Probe.samples_for a ~universes:spec.Registry.universes spec.Registry.probes
      @ spec.Registry.extra_samples
    in
    analyze_radius add spec samples;
    analyze_oblivious add a samples;
    analyze_messages add spec samples
  end
  else
    addf add D.Radius_sound D.Warning
      "arbiter exposes no per-node verdict function: the radius declaration cannot be probed";
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* formulas: stratification, LFO matrix, certificate budget *)

let polarity_name = function Registry.Sigma -> "Σ" | Registry.Pi -> "Π"

let in_claimed_class (spec : Registry.formula_spec) =
  match (spec.Registry.claimed_level, spec.Registry.claimed_polarity) with
  | 0, _ -> Syntax.in_sigma_lfo 0 spec.Registry.formula
  | l, Registry.Sigma -> Syntax.in_sigma_lfo l spec.Registry.formula
  | l, Registry.Pi -> Syntax.in_pi_lfo l spec.Registry.formula

let analyze_stratification add (spec : Registry.formula_spec) =
  let f = spec.Registry.formula in
  let claimed = spec.Registry.claimed_level in
  let level, first = Syntax.level f in
  let _, matrix = Syntax.so_prefix f in
  if not (Syntax.is_lfo matrix) then
    addf add D.Bounded_quantifiers D.Error
      "the matrix below the second-order prefix is not LFO: first-order quantifiers must \
       be bounded (one outer unbounded universal excepted)"
  else if not (in_claimed_class spec) then
    addf add D.Stratification D.Error
      "sentence is not in the claimed %s%d^LFO: the prefix has %d alternating block(s)%s"
      (polarity_name spec.Registry.claimed_polarity)
      claimed level
      (match first with
      | Some Syntax.Ex -> " starting existentially"
      | Some Syntax.All -> " starting universally"
      | None -> "")
  else if level < claimed then
    addf add D.Stratification D.Warning
      "claimed level %d is loose: the prefix has only %d alternating block(s)" claimed level

let analyze_budget add (spec : Registry.formula_spec) =
  if in_claimed_class spec then begin
    let compiled = Compile.compile spec.Registry.formula in
    match compiled.Compile.arbiter.Arbiter.cert_bound with
    | None ->
        addf add D.Certificate_budget D.Error
          "compiled arbiter declares no certificate bound: the game quantifies over \
           unbounded certificates"
    | Some bound ->
        let bad = ref None in
        List.iter
          (fun g ->
            if !bad = None then begin
              let ids = Ids.make_global g in
              let universes = Compile.fragment_universes compiled g ~ids in
              List.iteri
                (fun lvl universe ->
                  List.iter
                    (fun u ->
                      let cap = Certs.max_length g ~ids bound u in
                      List.iter
                        (fun cert ->
                          if !bad = None && String.length cert > cap then
                            bad := Some (lvl, u, String.length cert, cap))
                        (universe u))
                    (G.nodes g))
                universes
            end)
          spec.Registry.budget_probes;
        (match !bad with
        | Some (lvl, u, len, cap) ->
            addf add D.Certificate_budget D.Error
              "level-%d fragment certificate of length %d at node %d exceeds the declared \
               (r,p) budget (%d)"
              (lvl + 1) len u cap
        | None -> ())
  end

let analyze_formula (spec : Registry.formula_spec) =
  let diags, add = collector spec.Registry.f_name in
  analyze_stratification add spec;
  (try analyze_budget add spec
   with Lph_util.Error.Error e ->
     addf add D.Certificate_budget D.Error "compilation failed: %s"
       (Format.asprintf "%a" Lph_util.Error.pp e));
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* reductions: constant cluster radius, polynomial per-node output *)

let analyze_reduction (spec : Registry.reduction_spec) =
  let diags, add = collector spec.Registry.r_name in
  let red = spec.Registry.reduction in
  let gr = red.Cluster.gather_radius in
  if gr < 0 then addf add D.Cluster_radius D.Error "negative gather radius %d" gr;
  if red.Cluster.id_radius < gr + 1 then
    addf add D.Cluster_radius D.Error
      "id_radius %d is below the gather layer's precondition: gathering radius %d needs \
       identifiers unique at radius %d"
      red.Cluster.id_radius gr (gr + 1);
  let bad = ref None in
  (try
     List.iter
       (fun g ->
         if !bad = None then begin
           let ids = Ids.make_global g in
           (* the assemble protocol itself re-checks ownership and
              boundary agreement; a raise here is a finding, not a
              crash *)
           ignore (Cluster.apply red g ~ids);
           let result = Runner.run (Cluster.algo_of red) g ~ids () in
           List.iter
             (fun u ->
               if !bad = None then begin
                 let len = String.length (G.label result.Runner.output u) in
                 let info = N.ball_information g ~ids ~radius:gr u in
                 if not (Poly.fits ~bound:spec.Registry.output_bound [ (info, len) ]) then
                   bad := Some (u, len, info)
               end)
             (G.nodes g)
         end)
       spec.Registry.r_probes;
     match !bad with
     | Some (u, len, info) ->
         addf add D.Output_poly D.Error
           "encoded cluster of %d bytes at node %d exceeds the declared polynomial of its \
            %d-ball information (%d): p(%d) = %d"
           len u gr info info
           (Poly.eval spec.Registry.output_bound info)
     | None -> ()
   with Lph_util.Error.Error e ->
     addf add D.Cluster_radius D.Error "reduction failed on a probe graph: %s"
       (Format.asprintf "%a" Lph_util.Error.pp e));
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* codecs: length accounting vs materialised encodings, both modes *)

let analyze_codec (Registry.Codec_spec { c_name; codec; values }) =
  let diags, add = collector c_name in
  List.iteri
    (fun i v ->
      let packed = C.encode codec v and bits = C.encode_bits codec v in
      let plen = C.encoded_length codec v and blen = C.bits_length codec v in
      if String.length packed <> plen then
        addf add D.Cost_accounting D.Error
          "value #%d: encoded_length %d but the packed encoding is %d bytes" i plen
          (String.length packed);
      if String.length bits <> blen then
        addf add D.Cost_accounting D.Error
          "value #%d: bits_length %d but the bit-string encoding is %d characters" i blen
          (String.length bits);
      if blen <> 8 * plen then
        addf add D.Cost_accounting D.Error
          "value #%d: bits_length %d is not 8 * encoded_length (%d): the two wire modes \
           charge different costs"
          i blen plen;
      (try
         if C.decode codec packed <> v then
           addf add D.Cost_accounting D.Error "value #%d: packed round-trip changed the value" i;
         if C.decode_bits codec bits <> v then
           addf add D.Cost_accounting D.Error "value #%d: bit-string round-trip changed the value" i
       with Lph_util.Error.Error e ->
         addf add D.Cost_accounting D.Error "value #%d: round-trip decode failed: %s" i
           (Format.asprintf "%a" Lph_util.Error.pp e)))
    values;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* fault fixtures: the spec strings recorded campaigns replay through
   must parse under the typed grammar and survive a spec round-trip *)

let analyze_fault (fx : Registry.fault_fixture) =
  let diags, add = collector fx.Registry.fx_name in
  let lang_name =
    match fx.Registry.fx_lang with
    | Registry.Plan_spec -> "fault-plan"
    | Registry.Model_spec -> "fault-model"
  in
  (match fx.Registry.fx_lang with
  | Registry.Plan_spec -> (
      match Lph_faults.Fault_plan.parse fx.Registry.fx_spec with
      | plan -> (
          let spec' = Lph_faults.Fault_plan.to_spec plan in
          match Lph_faults.Fault_plan.parse spec' with
          | _ -> ()
          | exception Lph_util.Error.Error e ->
              addf add D.Fault_spec D.Error
                "plan spec %S round-trips to %S, which no longer parses: %s" fx.Registry.fx_spec
                spec'
                (Format.asprintf "%a" Lph_util.Error.pp e))
      | exception Lph_util.Error.Error e ->
          addf add D.Fault_spec D.Error "%s spec %S does not parse: %s" lang_name
            fx.Registry.fx_spec
            (Format.asprintf "%a" Lph_util.Error.pp e))
  | Registry.Model_spec -> (
      match Lph_faults.Fault_model.of_string fx.Registry.fx_spec with
      | model -> (
          let spec' = Lph_faults.Fault_model.to_string model in
          match Lph_faults.Fault_model.of_string spec' with
          | _ -> ()
          | exception Lph_util.Error.Error e ->
              addf add D.Fault_spec D.Error
                "model spec %S round-trips to %S, which no longer parses: %s"
                fx.Registry.fx_spec spec'
                (Format.asprintf "%a" Lph_util.Error.pp e))
      | exception Lph_util.Error.Error e ->
          addf add D.Fault_spec D.Error "%s spec %S does not parse: %s" lang_name
            fx.Registry.fx_spec
            (Format.asprintf "%a" Lph_util.Error.pp e)));
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* the certificate-budget optimiser rules (--optimize): minimal-budget
   search over each spec's probe families, replay validation of every
   lower-bound witness, and the reduction consistency cross-checks *)

let verify_proof add ~where (proof : Optimum.proof) =
  match proof with
  | Optimum.Core p ->
      if not (Optimum.core_subset p) then
        addf add D.Lower_bound_replay D.Error
          "%s: the UNSAT core names a literal outside the recorded assumptions" where
      else if not (Optimum.replay p) then
        addf add D.Lower_bound_replay D.Error
          "%s: the UNSAT core (budget %d, %d literal(s)) fails to replay in a fresh solver"
          where p.Optimum.p_budget
          (List.length p.Optimum.core)
  | Optimum.Refuted_by_game _ | Optimum.Floor -> ()

let verify_result add (r : Optimum.result) =
  let where = Printf.sprintf "%s/%d" r.Optimum.r_family r.Optimum.r_size in
  if not r.Optimum.r_engines_agree then
    addf add D.Lower_bound_replay D.Error
      "%s: the leading engine and its independent checker disagree at the budget boundary" where;
  match r.Optimum.r_verdict with
  | Optimum.Optimum { bits; proof } ->
      verify_proof add ~where proof;
      (match r.Optimum.r_declared with
      | Some declared when declared > bits && declared >= 2 * bits ->
          addf add D.Budget_slack D.Warning
            "%s: declared budget %d is at least twice the searched optimum %d%s" where declared
            bits
            (match Optimum.proof_size proof with
            | Some n -> Printf.sprintf " (lower bound certified by a %d-literal UNSAT core)" n
            | None -> "")
      | Some _ | None -> ())
  | Optimum.Rejected { proof; _ } -> verify_proof add ~where proof
  | Optimum.Unsupported _ -> ()

let analyze_arbiter_optimum (spec : Registry.arbiter_spec) =
  let diags, add = collector spec.Registry.a_name in
  let results =
    List.concat_map
      (fun (fname, sizes) ->
        match Optimum.family fname with
        | None ->
            addf add D.Reduction_consistency D.Error
              "optimiser probe names unknown graph family %S" fname;
            []
        | Some family ->
            List.map
              (fun size ->
                Optimum.search ~name:spec.Registry.a_name ~arbiter:spec.Registry.arbiter
                  ~universes:spec.Registry.universes ~family ~size ())
              sizes)
      spec.Registry.opt_probes
  in
  List.iter (verify_result add) results;
  (results, List.rev !diags)

let analyze_cert_reduction (red : Cert_reduction.t) =
  let diags, add = collector red.Cert_reduction.cr_name in
  let checks = Cert_reduction.check red in
  List.iter
    (fun (ck : Cert_reduction.check) ->
      if not ck.Cert_reduction.ck_consistent then
        addf add D.Reduction_consistency D.Error "instance %s: %s"
          ck.Cert_reduction.ck_instance ck.Cert_reduction.ck_detail)
    checks;
  (checks, List.rev !diags)

let analyze_stored (r : Optimum.result) =
  let diags, add = collector r.Optimum.r_spec in
  verify_result add r;
  List.rev !diags

(* ------------------------------------------------------------------ *)

let run ?(optimize = false) (registry : Registry.t) =
  let base_diagnostics =
    List.concat_map analyze_arbiter registry.Registry.arbiters
    @ List.concat_map analyze_formula registry.Registry.formulas
    @ List.concat_map analyze_reduction registry.Registry.reductions
    @ List.concat_map analyze_codec registry.Registry.codecs
    @ List.concat_map analyze_fault registry.Registry.faults
  in
  let optima, reduction_checks, opt_diagnostics =
    if not optimize then ([], [], [])
    else begin
      let searched = List.map analyze_arbiter_optimum registry.Registry.arbiters in
      let checked = List.map analyze_cert_reduction registry.Registry.cert_reductions in
      let stored_diags = List.concat_map analyze_stored registry.Registry.opt_stored in
      ( List.concat_map fst searched @ registry.Registry.opt_stored,
        List.concat_map fst checked,
        List.concat_map snd searched @ List.concat_map snd checked @ stored_diags )
    end
  in
  {
    arbiters = List.length registry.Registry.arbiters;
    formulas = List.length registry.Registry.formulas;
    reductions = List.length registry.Registry.reductions;
    codecs = List.length registry.Registry.codecs;
    faults = List.length registry.Registry.faults;
    diagnostics = base_diagnostics @ opt_diagnostics;
    optima;
    reduction_checks;
  }

let errors r = List.filter D.is_error r.diagnostics
let warnings r = List.filter (fun (d : D.t) -> d.D.severity = D.Warning) r.diagnostics
let has_errors r = errors r <> []

let json_of_int_opt = function Some n -> Json.Int n | None -> Json.Null

let optimum_to_json (r : Optimum.result) =
  Json.Obj
    [
      ("spec", Json.String r.Optimum.r_spec);
      ("family", Json.String r.Optimum.r_family);
      ("size", Json.Int r.Optimum.r_size);
      ("verdict", Json.String (Optimum.verdict_string r.Optimum.r_verdict));
      ("bits", json_of_int_opt (Optimum.verdict_bits r.Optimum.r_verdict));
      ("declared", json_of_int_opt r.Optimum.r_declared);
      ( "proof_size",
        json_of_int_opt
          (match r.Optimum.r_verdict with
          | Optimum.Optimum { proof; _ } | Optimum.Rejected { proof; _ } ->
              Optimum.proof_size proof
          | Optimum.Unsupported _ -> None) );
      ("engines_agree", Json.Bool r.Optimum.r_engines_agree);
      ("probes", Json.Int r.Optimum.r_probes);
      ("search_ms", Json.Int (int_of_float (Float.round r.Optimum.r_search_ms)));
    ]

let check_to_json (ck : Cert_reduction.check) =
  Json.Obj
    [
      ("reduction", Json.String ck.Cert_reduction.ck_reduction);
      ("instance", Json.String ck.Cert_reduction.ck_instance);
      ("source_bits", json_of_int_opt ck.Cert_reduction.ck_source_bits);
      ("target_bits", json_of_int_opt ck.Cert_reduction.ck_target_bits);
      ("transferred", json_of_int_opt ck.Cert_reduction.ck_transferred);
      ("consistent", Json.Bool ck.Cert_reduction.ck_consistent);
      ("detail", Json.String ck.Cert_reduction.ck_detail);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.String "lph-lint-2");
      ( "specs",
        Json.Obj
          [
            ("arbiters", Json.Int r.arbiters);
            ("formulas", Json.Int r.formulas);
            ("reductions", Json.Int r.reductions);
            ("codecs", Json.Int r.codecs);
            ("faults", Json.Int r.faults);
          ] );
      ("errors", Json.Int (List.length (errors r)));
      ("warnings", Json.Int (List.length (warnings r)));
      ("diagnostics", Json.List (List.map D.to_json r.diagnostics));
      ("optima", Json.List (List.map optimum_to_json r.optima));
      ("reduction_checks", Json.List (List.map check_to_json r.reduction_checks));
    ]

let pp_report fmt r =
  List.iter (fun d -> Format.fprintf fmt "%a@." D.pp d) r.diagnostics;
  List.iter
    (fun (o : Optimum.result) ->
      Format.fprintf fmt "optimum %s on %s/%d: %s%s%s@." o.Optimum.r_spec o.Optimum.r_family
        o.Optimum.r_size
        (Optimum.verdict_string o.Optimum.r_verdict)
        (match Optimum.verdict_bits o.Optimum.r_verdict with
        | Some b -> Printf.sprintf " at %d bit(s)" b
        | None -> "")
        (match o.Optimum.r_declared with
        | Some d -> Printf.sprintf " (declared %d)" d
        | None -> ""))
    r.optima;
  Format.fprintf fmt "%d spec(s) analysed (%d arbiters, %d formulas, %d reductions, %d \
                      codecs, %d fault fixtures): %d error(s), %d warning(s)@."
    (r.arbiters + r.formulas + r.reductions + r.codecs + r.faults)
    r.arbiters r.formulas r.reductions r.codecs r.faults
    (List.length (errors r))
    (List.length (warnings r));
  if r.optima <> [] || r.reduction_checks <> [] then
    Format.fprintf fmt "certificate-budget optimiser: %d search(es), %d reduction check(s)@."
      (List.length r.optima)
      (List.length r.reduction_checks)
