module Gen = Lph_graph.Generators
module LA = Lph_machine.Local_algo
module Arbiter = Lph_hierarchy.Arbiter
module Candidates = Lph_hierarchy.Candidates
module GF = Lph_logic.Graph_formulas
module F = Lph_logic.Formula
module Cluster = Lph_reductions.Cluster
module Compile = Lph_fagin.Compile
module G = Lph_graph.Labeled_graph
module Poly = Lph_util.Poly

(* A correct radius-1 machine re-declared at radius 0: probing must
   find the label flip at distance 1 that changes the verdict. *)
let under_declared () =
  Registry.of_algo
    (LA.with_radius (Some 0) Candidates.constant_label_decider)
    ~probes:[ Gen.cycle 4; Gen.path ~labels:[| "1"; "1"; "0" |] 3 ]

let opaque () =
  Registry.of_algo
    (LA.with_radius None Candidates.constant_label_decider)
    ~probes:[ Gen.cycle 4 ]

let over_declared () =
  Registry.of_algo
    (LA.with_radius (Some 2) Candidates.constant_label_decider)
    ~probes:[ Gen.cycle 5; Gen.path ~labels:[| "1"; "1"; "0" |] 3 ]

(* Identifier-reading arbiters declared oblivious: the two-factor
   verifier's certificates name neighbours by identifier, the Fagin
   arbiter's reference elements by identifier. Probing must find a
   node whose ball verdict changes when its identifiers are rewritten. *)
let oblivious_two_factor () =
  Registry.of_algo
    (LA.oblivious Candidates.two_factor_verifier)
    ~universes:(fun g ids -> [ Candidates.two_factor_universe g ids ])
    ~probes:[ Gen.cycle 4; Gen.cycle 5 ]

let oblivious_fagin () =
  let c = Compile.compile GF.two_colorable in
  let g = Gen.cycle 4 in
  let ids = Lph_graph.Identifiers.make_global g in
  let universes g ids =
    Compile.fragment_universes ~tuple_filter:(List.for_all (fun i -> i < G.card g)) c g ~ids
  in
  (* an honest colouring, so the rewrites have an accepting verdict to
     break *)
  let honest =
    Lph_hierarchy.Game.eve_witness ~engine:`Pruned c.Compile.arbiter g ~ids
      ~universes:(universes g ids)
  in
  Registry.arbiter_spec ~name:"fixture:oblivious-fagin" ~probes:[ g ] ~universes
    ~expectation:(Registry.Static (Lph_logic.Syntax.visibility_radius GF.two_colorable + 1))
    ~extra_samples:(List.map (fun w -> { Probe.graph = g; certs = [ w ] }) (Option.to_list honest))
    { c.Compile.arbiter with Arbiter.oblivious = true }

(* ∃R ∀x ∃y R(y): the inner ∃y is an unbounded first-order quantifier,
   so the matrix is not LFO — locality is lost however low the level
   claim. *)
let unbounded_matrix = F.Exists_so ("R", 1, F.Forall ("x", F.Exists ("y", F.App ("R", [ "y" ]))))

(* The CEGAR engine's Σ2 game shape mis-declared one level down: an
   ∃C̄ ∀D prefix has two alternating blocks, so claiming Σ1 must trip
   the stratification rule (the matrix is the LFO colouring check, so
   no other formula rule can fire instead). *)
let misdeclared_sigma2 =
  let colors = [ "C0"; "C1" ] in
  F.exists_so_many
    (List.map (fun c -> (c, 1)) colors)
    (F.Forall_so ("D", 1, GF.forall_node "x" (GF.well_colored ~colors "x")))

let bad_reduction () =
  { Lph_reductions.Eulerian_red.reduction with Cluster.name = "fixture:bad-reduction"; id_radius = 1 }

(* A correct 2-colour verifier declaring a constant budget of 4 bits:
   one bit is enough on even cycles, so the declaration carries >= 2x
   slack and the optimiser must warn. *)
let slack_budget () =
  Registry.arbiter_spec ~name:"fixture:slack-budget"
    ~algo:(Candidates.color_verifier 2)
    ~universes:(fun _g _ids -> [ Candidates.color_universe 2 ])
    ~extra_samples:[ { Probe.graph = Gen.cycle 4; certs = [ [| "0"; "1"; "0"; "1" |] ] } ]
    ~probes:[ Gen.cycle 4; Gen.path 3 ]
    ~opt_probes:[ ("even-cycle", [ 4 ]) ]
    (Arbiter.of_local_algo ~id_radius:2
       ~cert_bound:{ Lph_graph.Certificates.radius = 1; poly = Poly.const 4 }
       (Candidates.color_verifier 2))

(* A correct relabelling reduction paired with a transfer function that
   claims certificates vanish: direct search finds a 1-bit source
   optimum, falsifying the transferred bound of 0. *)
let inconsistent_reduction () =
  let two_col =
    {
      Cert_reduction.cs_name = "fixture:2col";
      cs_arbiter = Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2);
      cs_universes = Some (fun _g _ids -> [ Candidates.color_universe 2 ]);
    }
  in
  {
    Cert_reduction.cr_name = "fixture:inconsistent-reduction";
    cr_source = two_col;
    cr_target = two_col;
    cr_via =
      Lph_reductions.To_all_selected.reduction ~name:"fixture:relabel" ~radius:1
        ~decide:(fun _ctx _ball -> true);
    cr_transfer = (fun _ -> 0);
    cr_transfer_doc = "falsely claims the image needs no certificates at all";
    cr_instances = [ ("C4", Gen.cycle 4) ];
  }

(* A genuine search result whose recorded UNSAT core is emptied out:
   replaying the empty assumption set leaves the game satisfiable, so
   the stored lower bound no longer stands. *)
let bad_replay_result () =
  let family =
    match Optimum.family "even-cycle" with Some f -> f | None -> assert false
  in
  let r =
    Optimum.search ~name:"fixture:bad-replay"
      ~arbiter:(Arbiter.of_local_algo ~id_radius:2 (Candidates.color_verifier 2))
      ~universes:(Some (fun _g _ids -> [ Candidates.color_universe 2 ]))
      ~family ~size:4 ()
  in
  match r.Optimum.r_verdict with
  | Optimum.Optimum { bits; proof = Optimum.Core p } ->
      {
        r with
        Optimum.r_verdict =
          Optimum.Optimum { bits; proof = Optimum.Core { p with Optimum.core = [] } };
      }
  | _ -> r

let rename name (spec : Registry.arbiter_spec) = { spec with Registry.a_name = name }

let violations () =
  {
    Registry.arbiters =
      [
        rename "fixture:under-declared" (under_declared ());
        rename "fixture:opaque" (opaque ());
        rename "fixture:over-declared" (over_declared ());
        slack_budget ();
        rename "fixture:oblivious-two-factor" (oblivious_two_factor ());
        oblivious_fagin ();
      ];
    formulas =
      [
        {
          Registry.f_name = "fixture:over-deep-formula";
          formula = GF.not_all_selected;
          claimed_level = 1;
          claimed_polarity = Registry.Sigma;
          budget_probes = [];
        };
        {
          Registry.f_name = "fixture:unbounded-formula";
          formula = unbounded_matrix;
          claimed_level = 1;
          claimed_polarity = Registry.Sigma;
          budget_probes = [];
        };
        {
          Registry.f_name = "fixture:misdeclared-sigma2";
          formula = misdeclared_sigma2;
          claimed_level = 1;
          claimed_polarity = Registry.Sigma;
          budget_probes = [];
        };
      ];
    reductions =
      [
        {
          Registry.r_name = "fixture:bad-reduction";
          reduction = bad_reduction ();
          r_probes = [ Gen.cycle 4 ];
          output_bound = Lph_util.Poly.monomial ~coeff:2048 ~degree:2;
        };
      ];
    codecs = [];
    faults =
      [
        (* unknown kind, rate out of [0,1], missing seed, unknown model
           name: one fixture per failure shape of the typed parsers *)
        { Registry.fx_name = "fixture:unknown-kind"; fx_lang = Registry.Plan_spec; fx_spec = "warp:1" };
        { Registry.fx_name = "fixture:rate-out-of-range"; fx_lang = Registry.Plan_spec; fx_spec = "all@1.5:1" };
        { Registry.fx_name = "fixture:missing-seed"; fx_lang = Registry.Plan_spec; fx_spec = "all@0.3" };
        { Registry.fx_name = "fixture:unknown-model"; fx_lang = Registry.Model_spec; fx_spec = "heisenberg/f1" };
      ];
    cert_reductions = [ inconsistent_reduction () ];
    opt_stored = [ bad_replay_result () ];
  }

let expectations =
  [
    ("fixture:under-declared", Diagnostic.Radius_sound, Diagnostic.Error);
    ("fixture:opaque", Diagnostic.Radius_declared, Diagnostic.Error);
    ("fixture:over-declared", Diagnostic.Radius_tight, Diagnostic.Warning);
    ("fixture:oblivious-two-factor", Diagnostic.Ids_oblivious, Diagnostic.Error);
    ("fixture:oblivious-fagin", Diagnostic.Ids_oblivious, Diagnostic.Error);
    ("fixture:over-deep-formula", Diagnostic.Stratification, Diagnostic.Error);
    ("fixture:unbounded-formula", Diagnostic.Bounded_quantifiers, Diagnostic.Error);
    ("fixture:misdeclared-sigma2", Diagnostic.Stratification, Diagnostic.Error);
    ("fixture:bad-reduction", Diagnostic.Cluster_radius, Diagnostic.Error);
    ("fixture:unknown-kind", Diagnostic.Fault_spec, Diagnostic.Error);
    ("fixture:rate-out-of-range", Diagnostic.Fault_spec, Diagnostic.Error);
    ("fixture:missing-seed", Diagnostic.Fault_spec, Diagnostic.Error);
    ("fixture:unknown-model", Diagnostic.Fault_spec, Diagnostic.Error);
  ]

(* tripped only under Lint.run ~optimize:true *)
let opt_expectations =
  [
    ("fixture:slack-budget", Diagnostic.Budget_slack, Diagnostic.Warning);
    ("fixture:inconsistent-reduction", Diagnostic.Reduction_consistency, Diagnostic.Error);
    ("fixture:bad-replay", Diagnostic.Lower_bound_replay, Diagnostic.Error);
  ]
