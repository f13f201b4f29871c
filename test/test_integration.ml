(* End-to-end integration scenarios stitching the whole system together:
   formats <-> model <-> session <-> correctors <-> engine <-> store <->
   queries. Each test is a realistic user journey. *)

open Wolves_workflow
module T = Wolves_workload.Templates
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Session = Wolves_core.Session
module Suggest = Wolves_core.Suggest
module P = Wolves_provenance.Provenance
module Store = Wolves_provenance.Store
module Engine = Wolves_engine.Engine
module Query = Wolves_query.Query
module Editor = Wolves_cli.Editor
module Moml = Wolves_moml.Moml
module Wfdsl = Wolves_lang.Wfdsl
module R = Wolves_repository.Repository

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let in_tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Journey 1: a bioinformatician's pipeline, from authoring to exact
   provenance. *)
let test_authoring_to_provenance () =
  (* Author in the DSL. *)
  let source =
    {|workflow "rnaseq" {
  task "download"; task "qc"; task "trim"; task "align";
  task "count"; task "normalize"; task "report"; task "annotate";

  "download" -> "qc" -> "trim" -> "align" -> "count";
  "count" -> "normalize" -> "report";
  "download" -> "annotate";
  "annotate" -> "report";

  composite "Prep"     { "download" "qc" "trim" }
  composite "Quantify" { "align" "count" "annotate" }   # sneaky: annotate doesn't feed align
  composite "Publish"  { "normalize" "report" }
}|}
  in
  let path = in_tmp "rnaseq.wf" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc source);
  let spec, view =
    match Wfdsl.load path with
    | Ok v -> v
    | Error e -> Alcotest.failf "DSL: %a" Wfdsl.pp_error e
  in
  Sys.remove path;
  (* The validator catches the sneaky grouping. *)
  let report = S.validate view in
  check_int "one unsound composite" 1 (List.length report.S.unsound);
  let bad = View.composite_name view (fst (List.hd report.S.unsound)) in
  Alcotest.(check string) "it is Quantify" "Quantify" bad;
  (* Item-level damage exists before correction... *)
  let before = P.evaluate_view_items view in
  check_bool "wrong answers before" true (before.P.spurious > 0);
  (* ...an editor session repairs it interactively... *)
  let editor = Editor.create view in
  let out =
    Editor.run_script editor [ "correct \"Quantify\" optimal"; "show" ]
  in
  check_bool "editor reports soundness" true
    (List.exists
       (fun l ->
         let needle = "view is sound" in
         let ln = String.length needle and lh = String.length l in
         let rec go i = i + ln <= lh && (String.sub l i ln = needle || go (i + 1)) in
         go 0)
       out);
  let repaired = Session.current_view (Editor.session editor) in
  (* ...and provenance is exact, via MoML round trip to be sure nothing is
     lost in serialisation. *)
  let reloaded =
    match Moml.of_string (Moml.to_string repaired) with
    | Ok (_, v) -> v
    | Error e -> Alcotest.failf "MoML: %a" Moml.pp_error e
  in
  let after = P.evaluate_view_items reloaded in
  check_int "exact provenance after repair + round trip" 0 after.P.spurious;
  (* Query cross-check on the repaired view. *)
  (match
     Query.eval_names reloaded
       "composites(ancestors('report')) - ancestors('report')"
   with
   | Ok extras ->
     (* Sound view: the composite-level overapproximation may include
        co-grouped tasks but never unsound phantom branches; here the
        repaired groups are tight enough to be exact. *)
     check_bool "no phantom branch" true
       (not (List.mem "qc-phantom" extras))
   | Error e -> Alcotest.failf "query: %a" Query.pp_error e);
  ignore spec

(* Journey 2: operations — suggested sound view, month of runs, influence
   audit, persisted and reloaded. *)
let test_operations_journey () =
  let spec = T.generate T.Montage ~scale:6 in
  let view =
    Suggest.view_of_groups spec (Suggest.optimal_sound_banding spec ~max_size:6)
  in
  check_bool "suggested view sound" true (S.is_sound view);
  let store = Store.create spec in
  for night = 1 to 15 do
    let config =
      { Engine.default_config with
        Engine.workers = 3;
        failure_rate = 0.05;
        seed = night;
        policy = Engine.Critical_path_first }
    in
    let trace = Engine.run ~config spec in
    match Store.record_run store (Engine.statuses trace) with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  let csv = in_tmp "montage_runs.csv" in
  (match Store.save_csv store csv with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  (match Store.load_csv spec csv with
   | Error msg -> Alcotest.fail msg
   | Ok store' ->
     check_int "runs preserved" 15 (Store.n_runs store');
     (* Influence queries agree between original and reloaded stores. *)
     let first = Spec.task_of_name_exn spec "mProject_0" in
     let last = Spec.task_of_name_exn spec "mJPEG" in
     check_bool "influence sets equal" true
       (Store.runs_where_influences store first last
        = Store.runs_where_influences store' first last));
  Sys.remove csv

(* Journey 3: repository maintenance across a workflow upgrade. *)
let test_repository_evolution_journey () =
  let repo = R.create () in
  let spec_v1 = T.generate T.Epigenomics ~scale:3 in
  let view_v1, _ = C.correct C.Strong (T.natural_view T.Epigenomics spec_v1) in
  let id = R.add repo ~origin:"pegasus" spec_v1 view_v1 in
  check_int "audit clean" 0 (R.audit repo).R.unsound_views;
  (* The pipeline gains a lane: stage views must be re-checked. *)
  let spec_v2 = T.generate T.Epigenomics ~scale:4 in
  (match R.update repo ~id spec_v2 with
   | Error msg -> Alcotest.fail msg
   | Ok impact ->
     let appeared =
       List.filter
         (fun (_, ch) -> ch = Wolves_core.Evolution.Appeared)
         impact.Wolves_core.Evolution.changes
     in
     check_bool "the new lane appeared as singletons" true
       (List.length appeared >= 4));
  (* Whatever the impact, one batch correction re-establishes soundness. *)
  let repo', _ = R.correct_all C.Strong repo in
  check_int "sound after maintenance" 0 (R.audit repo').R.unsound_views;
  (* And the whole repository round-trips through MoML files. *)
  let dir = in_tmp "wolves_integration_repo" in
  (match R.save_dir dir repo' with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save_dir: %a" R.pp_io_error e);
  (match R.load_dir dir with
   | Ok loaded -> check_int "reload" (R.size repo') (R.size loaded)
   | Error e -> Alcotest.failf "load_dir: %a" R.pp_io_error e);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "wolves_integration"
    [ ( "journeys",
        [ Alcotest.test_case "authoring to exact provenance" `Quick
            test_authoring_to_provenance;
          Alcotest.test_case "operations (engine + store + csv)" `Quick
            test_operations_journey;
          Alcotest.test_case "repository evolution" `Quick
            test_repository_evolution_journey ] ) ]
