(* Tests for provenance analysis: ground-truth queries, view-level claims,
   the Figure 1 narrative, the soundness => exact-provenance theorem, and the
   OPM expansion. *)

open Wolves_workflow
module P = Wolves_provenance.Provenance
module Store = Wolves_provenance.Store
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Bitset = Wolves_graph.Bitset
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig1 = Examples.figure1

let item spec p c =
  { P.producer = Spec.task_of_name_exn spec p;
    P.consumer = Spec.task_of_name_exn spec c }

(* ------------------------------------------------------------------ *)
(* Workflow-level queries                                              *)
(* ------------------------------------------------------------------ *)

let test_items () =
  let spec, view = fig1 () in
  check_int "one item per edge" (Spec.n_dependencies spec)
    (List.length (P.items spec));
  (* Inter-composite items: edges crossing the 7 composites. Internal edges:
     2->3 (14), 9->10, 10->11, 11->12 (19). So 12 - 4 = 8. *)
  check_int "inter-composite items" 8 (List.length (P.inter_composite_items view))

let test_task_ancestors () =
  let spec, _ = fig1 () in
  let t n = Spec.task_of_name_exn spec n in
  let anc = P.task_ancestors spec (t "8:Format Alignment") in
  let expected =
    [ "1:Select Entries"; "2:Split Entries"; "6:Extract Sequences";
      "7:Create Alignment"; "8:Format Alignment" ]
  in
  Alcotest.(check (list string)) "ancestors of 8" expected
    (List.map (Spec.task_name spec) (Bitset.elements anc))

let test_item_in_provenance () =
  let spec, _ = fig1 () in
  let t n = Spec.task_of_name_exn spec n in
  (* The paper's ground truth: data 2->6 is provenance of 8; data 3->4 is
     not. *)
  check_bool "sequences feed the alignment" true
    (P.item_in_provenance spec (item spec "2:Split Entries" "6:Extract Sequences")
       (t "8:Format Alignment"));
  check_bool "annotations do not" false
    (P.item_in_provenance spec
       (item spec "3:Extract Annotations" "4:Curate Annotations")
       (t "8:Format Alignment"));
  check_int "items in provenance of 8" 4
    (List.length (P.items_in_provenance spec (t "8:Format Alignment")))

(* ------------------------------------------------------------------ *)
(* View-level: the Figure 1 narrative                                  *)
(* ------------------------------------------------------------------ *)

let test_fig1_view_provenance () =
  let spec, view = fig1 () in
  let c18 = Examples.figure1_query_composite view in
  let anc = P.composite_ancestors view c18 in
  (* "the outputs of tasks (13), (14), (15) and (16) will be considered as
     the provenance of the output of task (18)" *)
  let expected = [ "13:Select Entries"; "14:Split & Annotate";
                   "15:Extract Sequences"; "16:Align Sequences";
                   "18:Format Alignment" ] in
  Alcotest.(check (list string)) "view ancestors of 18" expected
    (List.sort compare
       (List.map (View.composite_name view) (Bitset.elements anc)));
  (* "Nevertheless, this is wrong!": the annotation item 3->4 is claimed but
     not true provenance. *)
  let bad = item spec "3:Extract Annotations" "4:Curate Annotations" in
  check_bool "view claims the annotation item" true
    (P.view_claims_item view bad c18);
  check_bool "ground truth denies it" false (P.truth_for_composite view bad c18);
  let spurious = P.spurious_items view c18 in
  check_bool "3->4 among the spurious items" true (List.mem bad spurious);
  let stats = P.evaluate_view view in
  check_bool "unsound view has spurious provenance" true (stats.P.spurious > 0);
  check_int "missing answers never happen" 0 stats.P.missing

let test_fig1_corrected_provenance () =
  let spec, view = fig1 () in
  let corrected, _ = C.correct C.Strong view in
  check_bool "corrected sound" true (S.is_sound corrected);
  let stats = P.evaluate_view corrected in
  check_int "sound view: no spurious answers" 0 stats.P.spurious;
  check_int "sound view: no missing answers" 0 stats.P.missing;
  (* And the specific paper item is now correctly excluded. *)
  let bad = item spec "3:Extract Annotations" "4:Curate Annotations" in
  let c18 =
    Option.get (View.composite_of_name corrected "18:Format Alignment")
  in
  check_bool "annotation item no longer claimed" false
    (P.view_claims_item corrected bad c18)

let test_expand () =
  let _, view = fig1 () in
  let c18 = Examples.figure1_query_composite view in
  let anc = P.composite_ancestors view c18 in
  let tasks = P.expand view anc in
  (* 13+14+15+16+18 = {1} {2,3} {6} {4,7} {8} *)
  check_int "expanded task count" 7 (Bitset.cardinal tasks)

(* ------------------------------------------------------------------ *)
(* Theorem: sound views give exact provenance                          *)
(* ------------------------------------------------------------------ *)

let prop_sound_views_exact =
  QCheck2.Test.make
    ~name:"sound view => no spurious and no missing provenance" ~count:100
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 8 40) (int_range 2 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Random_partition k) spec in
      let corrected, _ = C.correct C.Strong view in
      let stats = P.evaluate_view corrected in
      stats.P.spurious = 0 && stats.P.missing = 0)

let test_item_granularity_fig1 () =
  let _, view = fig1 () in
  let stats = P.evaluate_view_items view in
  check_bool "unsound view wrong at item granularity" true (stats.P.spurious > 0);
  check_int "never missing" 0 stats.P.missing;
  let corrected, _ = C.correct C.Strong view in
  let stats' = P.evaluate_view_items corrected in
  check_int "sound view exact at item granularity" 0 stats'.P.spurious;
  check_int "still never missing" 0 stats'.P.missing

let prop_sound_views_exact_items =
  QCheck2.Test.make
    ~name:"sound view => exact item-granularity provenance" ~count:80
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 8 30) (int_range 2 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Random_partition k) spec in
      let corrected, _ = C.correct C.Strong view in
      let stats = P.evaluate_view_items corrected in
      stats.P.spurious = 0 && stats.P.missing = 0)

let prop_missing_always_zero =
  QCheck2.Test.make
    ~name:"even unsound views never miss true provenance" ~count:100
    QCheck2.Gen.(
      triple (int_range 0 100_000) (int_range 8 40) (int_range 2 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Random_partition k) spec in
      (P.evaluate_view view).P.missing = 0)

(* ------------------------------------------------------------------ *)
(* Provenance store (multi-run)                                        *)
(* ------------------------------------------------------------------ *)

let test_store_perfect_run () =
  let spec, _ = fig1 () in
  let store = Store.create spec in
  let id = Store.simulate_run store ~failure_rate:0.0 ~seed:1 in
  check_int "first run id" 0 id;
  check_int "all tasks succeeded" 12 (List.length (Store.succeeded store id));
  check_int "all items produced" 12 (List.length (Store.items_of_run store id));
  let t8 = Spec.task_of_name_exn spec "8:Format Alignment" in
  Alcotest.(check (list string)) "run provenance = static provenance"
    [ "1:Select Entries"; "2:Split Entries"; "6:Extract Sequences";
      "7:Create Alignment"; "8:Format Alignment" ]
    (List.map (Spec.task_name spec) (Store.run_provenance store id t8))

let test_store_failure_propagates () =
  let spec, _ = fig1 () in
  let store = Store.create spec in
  (* Record a run where task 2 failed: everything downstream is skipped. *)
  let t name = Spec.task_of_name_exn spec name in
  let statuses =
    List.map
      (fun task ->
        let name = Spec.task_name spec task in
        if name = "1:Select Entries" then (task, Store.Succeeded)
        else if name = "2:Split Entries" then (task, Store.Failed)
        else if
          name = "9:Consider Other Annotations"
          || name = "10:Process Other Annotations"
        then (task, Store.Succeeded)
        else (task, Store.Skipped))
      (Spec.tasks spec)
  in
  (match Store.record_run store statuses with
   | Ok id ->
     check_int "three tasks ran" 3 (List.length (Store.succeeded store id));
     check_bool "8 has no provenance in this run" true
       (Store.run_provenance store id (t "8:Format Alignment") = []);
     check_int "items only from succeeded producers" 3
       (List.length (Store.items_of_run store id))
   | Error msg -> Alcotest.fail msg)

let test_store_consistency_check () =
  let spec, _ = fig1 () in
  let store = Store.create spec in
  (* Task 2 succeeded although task 1 failed: rejected. *)
  let statuses =
    List.map
      (fun task ->
        let name = Spec.task_name spec task in
        if name = "1:Select Entries" then (task, Store.Failed)
        else if name = "2:Split Entries" then (task, Store.Succeeded)
        else (task, Store.Skipped))
      (Spec.tasks spec)
  in
  (match Store.record_run store statuses with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "inconsistent run accepted");
  (match Store.record_run store [] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing statuses accepted");
  (match Store.record_run store [ (0, Store.Succeeded); (0, Store.Succeeded) ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "duplicate statuses accepted")

let test_store_cross_run_queries () =
  let spec, _ = fig1 () in
  let store = Store.create spec in
  for seed = 1 to 50 do
    ignore (Store.simulate_run store ~failure_rate:0.15 ~seed)
  done;
  check_int "50 runs" 50 (Store.n_runs store);
  let t1 = Spec.task_of_name_exn spec "1:Select Entries" in
  let t12 = Spec.task_of_name_exn spec "12:Display Tree" in
  let influence = Store.runs_where_influences store t1 t12 in
  (* In every such run the full pipeline survived: both endpoints succeeded
     and each run's provenance confirms the influence. *)
  List.iter
    (fun id ->
      check_bool "both succeeded" true
        (Store.status store id t1 = Store.Succeeded
         && Store.status store id t12 = Store.Succeeded);
      check_bool "t1 in provenance of t12" true
        (List.mem t1 (Store.run_provenance store id t12)))
    influence;
  (* Success rates decay downstream: the display task cannot succeed more
     often than the root selection task. *)
  check_bool "downstream rate lower" true
    (Store.success_rate store t12 <= Store.success_rate store t1)

let prop_store_provenance_subset_of_static =
  QCheck2.Test.make
    ~name:"run provenance is a subset of static provenance" ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 5 30))
    (fun (seed, size) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let store = Store.create spec in
      let id = Store.simulate_run store ~failure_rate:0.2 ~seed in
      List.for_all
        (fun task ->
          let run_prov = Store.run_provenance store id task in
          let static = P.task_ancestors spec task in
          List.for_all (fun u -> Bitset.mem static u) run_prov)
        (Spec.tasks spec))


let test_store_csv_roundtrip () =
  let spec, _ = fig1 () in
  let store = Store.create spec in
  for seed = 1 to 12 do
    ignore (Store.simulate_run store ~failure_rate:0.2 ~seed)
  done;
  let path = Filename.temp_file "wolves_store" ".csv" in
  (match Store.save_csv store path with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "save: %s" msg);
  (match Store.load_csv spec path with
   | Error msg -> Alcotest.failf "load: %s" msg
   | Ok store' ->
     check_int "same run count" (Store.n_runs store) (Store.n_runs store');
     List.iter
       (fun id ->
         List.iter
           (fun t ->
             check_bool "same status" true
               (Store.status store id t = Store.status store' id t))
           (Spec.tasks spec))
       (List.init (Store.n_runs store) Fun.id));
  Sys.remove path;
  (match Store.load_csv spec "/nonexistent.csv" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing file accepted");
  (* corrupt input *)
  let bad = Filename.temp_file "wolves_store" ".csv" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "run,task,status\n0,\"ghost\",succeeded\n");
  (match Store.load_csv spec bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad row accepted");
  Sys.remove bad

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_provenance"
    [ ( "workflow-level",
        [ Alcotest.test_case "items" `Quick test_items;
          Alcotest.test_case "task ancestors" `Quick test_task_ancestors;
          Alcotest.test_case "item membership" `Quick test_item_in_provenance ] );
      ( "view-level",
        [ Alcotest.test_case "figure 1 narrative" `Quick test_fig1_view_provenance;
          Alcotest.test_case "figure 1 after correction" `Quick
            test_fig1_corrected_provenance;
          Alcotest.test_case "expand composites" `Quick test_expand;
          Alcotest.test_case "item granularity on figure 1" `Quick
            test_item_granularity_fig1;
          qt prop_sound_views_exact;
          qt prop_sound_views_exact_items;
          qt prop_missing_always_zero ] );
      ( "store",
        [ Alcotest.test_case "perfect run" `Quick test_store_perfect_run;
          Alcotest.test_case "failure propagation" `Quick
            test_store_failure_propagates;
          Alcotest.test_case "consistency checking" `Quick
            test_store_consistency_check;
          Alcotest.test_case "cross-run queries" `Quick
            test_store_cross_run_queries;
          Alcotest.test_case "csv round trip" `Quick test_store_csv_roundtrip;
          qt prop_store_provenance_subset_of_static ] ) ]
