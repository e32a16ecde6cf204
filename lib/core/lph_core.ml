(** Umbrella module: one import for the whole reproduction.

    The paper's primary contribution — the local-polynomial hierarchy,
    its game semantics, arbiters and reductions — lives in
    {!Hierarchy}, {!Fagin} and {!Reductions}; everything else is the
    substrate those results stand on. See DESIGN.md for the map from
    paper sections to modules. *)

let version = "1.0.0"

(** {1 Substrates} *)

module Bitstring = Lph_util.Bitstring
module Codec = Lph_util.Codec
module Error = Lph_util.Error
module Poly = Lph_util.Poly
module Combinat = Lph_util.Combinat
module Parallel = Lph_util.Parallel
module Structure = Lph_structure.Structure

module Graph = Lph_graph.Labeled_graph
module Graph_memo = Lph_graph.Graph_memo
module Generators = Lph_graph.Generators
module Neighborhood = Lph_graph.Neighborhood
module Identifiers = Lph_graph.Identifiers
module Certificates = Lph_graph.Certificates
module Structural = Lph_graph.Structural
module Isomorphism = Lph_graph.Isomorphism

(** {1 Logic (Section 5)} *)

module Formula = Lph_logic.Formula
module Logic_syntax = Lph_logic.Syntax
module Logic_eval = Lph_logic.Eval
module Graph_formulas = Lph_logic.Graph_formulas
module Relation = Lph_logic.Relation

(** {1 Machines (Section 4)} *)

module Fault_plan = Lph_faults.Fault_plan
module Fault_model = Lph_faults.Fault_model
module Fault_search = Lph_faultlab.Fault_search
module Fault_workloads = Lph_faultlab.Workloads
module Turing = Lph_machine.Turing
module Machines = Lph_machine.Machines
module Local_algo = Lph_machine.Local_algo
module Runner = Lph_machine.Runner
module Gather = Lph_machine.Gather
module Step_time = Lph_machine.Step_time

(** {1 The local-polynomial hierarchy (Sections 4, 6, 9.1)} *)

module Arbiter = Lph_hierarchy.Arbiter
module Classes = Lph_hierarchy.Classes
module Restrictor = Lph_hierarchy.Restrictor
module Lcl = Lph_hierarchy.Lcl
module Game = Lph_hierarchy.Game
module Game_sat = Lph_hierarchy.Game_sat
module Game_cegar = Lph_hierarchy.Game_cegar
module Properties = Lph_hierarchy.Properties
module Candidates = Lph_hierarchy.Candidates
module Separations = Lph_hierarchy.Separations

(** {1 Hierarchy as a service} *)

module Serve_protocol = Lph_serve.Protocol
module Serve_scheduler = Lph_serve.Scheduler
module Serve_server = Lph_serve.Server
module Serve_client = Lph_serve.Client

(** {1 Boolean substrate and SAT-GRAPH (Section 8)} *)

module Bool_formula = Lph_boolean.Bool_formula
module Cnf = Lph_boolean.Cnf
module Tseytin = Lph_boolean.Tseytin
module Sat_solver = Lph_boolean.Solver
module Boolean_graph = Lph_boolean.Boolean_graph

(** {1 Reductions (Section 8)} *)

module Cluster = Lph_reductions.Cluster
module Eulerian_red = Lph_reductions.Eulerian_red
module Hamiltonian_red = Lph_reductions.Hamiltonian_red
module Cook_levin = Lph_reductions.Cook_levin
module Three_col_red = Lph_reductions.Three_col_red
module Simulate = Lph_reductions.Simulate
module To_all_selected = Lph_reductions.To_all_selected

(** {1 Descriptive complexity (Section 7)} *)

module Fagin = Lph_fagin.Compile
module Tableau = Lph_fagin.Tableau

(** {1 Spec analyzer (static side-condition checking)} *)

module Json = Lph_analysis.Json
module Diagnostic = Lph_analysis.Diagnostic
module Radius_probe = Lph_analysis.Probe
module Lint = Lph_analysis.Lint
module Lint_registry = Lph_analysis.Registry
module Lint_fixtures = Lph_analysis.Fixtures
module Optimum = Lph_analysis.Optimum
module Cert_reduction = Lph_analysis.Cert_reduction

(** {1 Pictures and tiling systems (Section 9.2)} *)

module Picture = Lph_picture.Picture
module Tiling = Lph_picture.Tiling
module Pic_languages = Lph_picture.Pic_languages
module Pic_to_graph = Lph_picture.Pic_to_graph
module Pic_local = Lph_picture.Pic_local

(** {1 Words and automata (Section 9.3)} *)

module Dfa = Lph_automata.Dfa
module Nfa = Lph_automata.Nfa
module Automata_word = Lph_automata.Word
module Mso_to_dfa = Lph_automata.Mso_to_dfa
module Pumping = Lph_automata.Pumping
module Nonregular = Lph_automata.Nonregular
module Word_graph = Lph_automata.Word_graph
