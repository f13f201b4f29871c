(* The dataflow framework and the annotation analyses: the fixpoint must
   agree with the dense closure on every generator family, the
   fine-grained flow must refine coarse reachability, and annotation
   inference must be an idempotent fixpoint. *)

module Digraph = Wolves_graph.Digraph
module Bitset = Wolves_graph.Bitset
module Reach = Wolves_graph.Reach
open Wolves_workflow
module S = Wolves_core.Soundness
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module Dataflow = Wolves_analysis.Dataflow
module Flow = Wolves_analysis.Flow
module Annot = Wolves_analysis.Annot

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Deterministic inline PRNG for annotation sprinkling. *)
let mk_rng seed =
  let state = ref (seed * 2654435761 + 12345) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    (!state lsr 17) mod bound

let spec_of ?(annots = []) tasks edges =
  let b = Spec.Builder.create ~name:"test" () in
  List.iter (fun t -> ignore (Spec.Builder.add_task_exn b t)) tasks;
  List.iter (fun (p, c) -> Spec.Builder.add_dependency_exn b p c) edges;
  List.iter
    (fun (t, output, ins) -> Spec.Builder.annotate_exn b t ~output ins)
    annots;
  Spec.Builder.finish_exn b

(* Rebuild a spec with extra annotation entries appended — how tests apply
   an inference result as if the user accepted the fix. *)
let apply_inferred spec (result : Annot.result) =
  let b = Spec.Builder.create ~name:(Spec.name spec) () in
  List.iter
    (fun t -> ignore (Spec.Builder.add_task_exn b (Spec.task_name spec t)))
    (Spec.tasks spec);
  Digraph.iter_edges
    (fun u v ->
      Spec.Builder.add_dependency_exn b (Spec.task_name spec u)
        (Spec.task_name spec v))
    (Spec.graph spec);
  List.iter
    (fun t ->
      List.iter
        (fun (o, ins) ->
          Spec.Builder.annotate_exn b (Spec.task_name spec t)
            ~output:(Spec.task_name spec o)
            (List.map (Spec.task_name spec) ins))
        (Option.value ~default:[] (Spec.annotation spec t)))
    (Spec.tasks spec);
  List.iter
    (fun { Annot.inf_task; inf_entries } ->
      List.iter
        (fun (o, ins) ->
          Spec.Builder.annotate_exn b (Spec.task_name spec inf_task)
            ~output:(Spec.task_name spec o)
            (List.map (Spec.task_name spec) ins))
        inf_entries)
    result.Annot.inferred;
  Spec.Builder.finish_exn b

(* Sprinkle random, consistent, possibly-incomplete annotations over a
   spec: real neighbours only. *)
let sprinkle_annotations ~seed spec =
  let rng = mk_rng seed in
  let b = Spec.Builder.create ~name:(Spec.name spec) () in
  List.iter
    (fun t -> ignore (Spec.Builder.add_task_exn b (Spec.task_name spec t)))
    (Spec.tasks spec);
  Digraph.iter_edges
    (fun u v ->
      Spec.Builder.add_dependency_exn b (Spec.task_name spec u)
        (Spec.task_name spec v))
    (Spec.graph spec);
  List.iter
    (fun x ->
      let outs = Spec.consumers spec x and ins = Spec.producers spec x in
      if outs <> [] && rng 2 = 0 then
        List.iter
          (fun c ->
            if rng 3 > 0 then
              Spec.Builder.annotate_exn b (Spec.task_name spec x)
                ~output:(Spec.task_name spec c)
                (List.filter_map
                   (fun p ->
                     if rng 2 = 0 then Some (Spec.task_name spec p) else None)
                   ins))
          outs)
    (Spec.tasks spec);
  Spec.Builder.finish_exn b

let small_specs () =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun size ->
          List.map
            (fun seed -> Gen.generate family ~seed ~size)
            [ 3; 17 ])
        [ 12; 40; 90 ])
    Gen.all_families

(* ------------------------------------------------------------------ *)
(* Dataflow framework                                                  *)
(* ------------------------------------------------------------------ *)

module Bits = Dataflow.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal

  let join acc v =
    Bitset.union_into ~into:acc v;
    acc
end)

(* Ancestor sets are the canonical forward analysis: value(v) = {v} ∪
   ⋃ value(pred). Must match the closure's ancestor rows. *)
let ancestors_via_dataflow ?domains g =
  Bits.solve ?domains ~direction:Dataflow.Forward ~graph:g
    ~init:(fun v ->
      let s = Bitset.create (Digraph.n_nodes g) in
      Bitset.add s v;
      s)
    ~transfer:(fun _ acc -> acc)
    ()

let test_dataflow_matches_closure () =
  List.iter
    (fun spec ->
      let g = Spec.graph spec in
      let r = Reach.compute g in
      let values, stats = ancestors_via_dataflow ~domains:1 g in
      check_int "one pass on a DAG" 1 stats.Dataflow.rounds;
      Array.iteri
        (fun v s ->
          check_bool "dataflow ancestors = closure ancestors" true
            (Bitset.equal s (Reach.ancestors r v)))
        values)
    (small_specs ())

let test_dataflow_parallel_identical () =
  List.iter
    (fun spec ->
      let g = Spec.graph spec in
      let seq, _ = ancestors_via_dataflow ~domains:1 g in
      List.iter
        (fun d ->
          let par, _ = ancestors_via_dataflow ~domains:d g in
          check_bool
            (Printf.sprintf "parallel(%d) = sequential" d)
            true
            (Array.for_all2 Bitset.equal seq par))
        [ 2; 4; 8 ])
    (small_specs ())

let test_dataflow_backward () =
  (* Backward over succ = descendants. *)
  let spec = Gen.generate Gen.Series_parallel ~seed:5 ~size:40 in
  let g = Spec.graph spec in
  let r = Reach.compute g in
  let values, _ =
    Bits.solve ~domains:1 ~direction:Dataflow.Backward ~graph:g
      ~init:(fun v ->
        let s = Bitset.create (Digraph.n_nodes g) in
        Bitset.add s v;
        s)
      ~transfer:(fun _ acc -> acc)
      ()
  in
  Array.iteri
    (fun v s ->
      check_bool "backward dataflow = descendants" true
        (Bitset.equal s (Reach.descendants r v)))
    values

let test_dataflow_cyclic () =
  (* A cycle with a tail: 0 -> 1 -> 2 -> 0, 2 -> 3. The framework must fall
     back to round-robin iteration and still reach the closure's answer. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let r = Reach.compute g in
  let values, stats = ancestors_via_dataflow ~domains:1 g in
  check_bool "cyclic solve iterates" true (stats.Dataflow.rounds >= 2);
  Array.iteri
    (fun v s ->
      check_bool "cyclic ancestors agree with closure" true
        (Bitset.equal s (Reach.ancestors r v)))
    values

(* ------------------------------------------------------------------ *)
(* Fine-grained flow                                                   *)
(* ------------------------------------------------------------------ *)

let test_flow_without_annotations_is_reachability () =
  List.iter
    (fun spec ->
      let flow = Flow.compute ~domains:1 spec in
      check_bool "no annotations: nothing dead" true (Flow.dead_edges flow = []);
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              check_bool "fine = coarse without annotations" true
                (Flow.fine_depends flow u v = Spec.depends spec u v))
            (Spec.tasks spec))
        (Spec.tasks spec))
    [ Gen.generate Gen.Layered ~seed:3 ~size:40;
      Gen.generate Gen.Erdos_renyi ~seed:4 ~size:40 ]

let test_flow_refines_reachability () =
  List.iter
    (fun spec ->
      let annotated = sprinkle_annotations ~seed:(Spec.n_tasks spec) spec in
      let flow = Flow.compute ~domains:1 annotated in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              if Flow.fine_depends flow u v then
                check_bool "fine-grained implies coarse" true
                  (Spec.depends annotated u v))
            (Spec.tasks annotated))
        (Spec.tasks annotated))
    (small_specs ())

let test_flow_hand_example () =
  (* Diamond a -> {b, c} -> d. b and c both declare their outputs to d
     depend on nothing, so d no longer fine-depends on a. *)
  let spec =
    spec_of
      [ "a"; "b"; "c"; "d" ]
      [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ]
      ~annots:[ ("b", "d", []); ("c", "d", []) ]
  in
  let flow = Flow.compute ~domains:1 spec in
  let t n = Spec.task_of_name_exn spec n in
  check_bool "coarse a->d holds" true (Spec.depends spec (t "a") (t "d"));
  check_bool "fine a->d refuted" false
    (Flow.fine_depends flow (t "a") (t "d"));
  check_bool "fine b->d holds" true (Flow.fine_depends flow (t "b") (t "d"));
  (* a's data dies inside b and c: both a-edges are dead. *)
  check_bool "a's out-edges are dead" true
    (Flow.dead_edges flow = [ (t "a", t "b"); (t "a", t "c") ])

let test_flow_effective_entry_defaults () =
  let spec =
    spec_of [ "a"; "b"; "x"; "y" ]
      [ ("a", "x"); ("b", "x"); ("x", "y") ]
  in
  let flow = Flow.compute ~domains:1 spec in
  let t n = Spec.task_of_name_exn spec n in
  check_bool "missing entry defaults to all producers" true
    (Flow.effective_entry flow (t "x") ~output:(t "y") = [ t "a"; t "b" ])

let test_flow_parallel_identical () =
  List.iter
    (fun spec ->
      let annotated = sprinkle_annotations ~seed:77 spec in
      let seq = Flow.compute ~domains:1 annotated in
      List.iter
        (fun d ->
          let par = Flow.compute ~domains:d annotated in
          check_bool "parallel flow: same dead edges" true
            (Flow.dead_edges par = Flow.dead_edges seq);
          List.iter
            (fun v ->
              check_bool "parallel flow: same dependency sets" true
                (Flow.depends_on par v = Flow.depends_on seq v))
            (Spec.tasks annotated))
        [ 2; 4 ])
    [ Gen.generate Gen.Layered ~seed:8 ~size:60;
      Gen.generate Gen.Series_parallel ~seed:9 ~size:60 ]

(* ------------------------------------------------------------------ *)
(* Annotation validation                                               *)
(* ------------------------------------------------------------------ *)

let test_validate_issues () =
  let spec =
    spec_of [ "a"; "b"; "x"; "y"; "z" ]
      [ ("a", "x"); ("b", "x"); ("x", "y"); ("x", "z") ]
      ~annots:
        [ ("x", "y", [ "a"; "y" ]);  (* y is not a producer of x *)
          ("x", "y", [ "b" ]);       (* duplicate entry for y *)
          ("x", "a", [ "b" ]);       (* a is not a consumer of x *)
          (* no entry for z: incomplete *) ]
  in
  let t n = Spec.task_of_name_exn spec n in
  let issues = Annot.validate spec in
  let expected =
    [ Annot.Not_an_input { task = t "x"; output = t "y"; input = t "y" };
      Annot.Duplicate_output { task = t "x"; output = t "y" };
      Annot.Not_an_output { task = t "x"; output = t "a" };
      Annot.Missing_output { task = t "x"; output = t "z" } ]
  in
  check_bool "exact issue list" true (issues = expected);
  check_int "three inconsistencies" 3
    (List.length (List.filter Annot.is_inconsistency issues))

let test_validate_clean_and_unannotated () =
  let clean =
    spec_of [ "a"; "x"; "y" ]
      [ ("a", "x"); ("x", "y") ]
      ~annots:[ ("x", "y", [ "a" ]) ]
  in
  check_bool "complete annotation raises nothing" true
    (Annot.validate clean = []);
  let bare = spec_of [ "a"; "x" ] [ ("a", "x") ] in
  check_bool "unannotated spec raises nothing" true (Annot.validate bare = [])

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_infer_completes_and_prunes () =
  (* x: inputs {a, b}, outputs {c, d}. Entry for c declared as {a}; d's
     entry is missing. d itself declares its only output constant, so the
     edge x -> d is dead, b's data can never matter, and the inferred entry
     for d must be pruned to {a}. *)
  let spec =
    spec_of
      [ "a"; "b"; "x"; "c"; "d"; "e" ]
      [ ("a", "x"); ("b", "x"); ("x", "c"); ("x", "d"); ("d", "e") ]
      ~annots:[ ("x", "c", [ "a" ]); ("d", "e", []) ]
  in
  let t n = Spec.task_of_name_exn spec n in
  let result = Annot.infer ~domains:1 spec in
  let entry_for task =
    List.find_opt (fun i -> i.Annot.inf_task = task) result.Annot.inferred
  in
  (match entry_for (t "x") with
   | Some { Annot.inf_entries = [ (d, producers) ]; _ } ->
     check_bool "inferred output is d" true (d = t "d");
     check_bool "dead input b pruned" true (producers = [ t "a" ])
   | _ -> Alcotest.fail "expected exactly one inferred entry for x");
  (* Sources with no inputs get empty entries; fully annotated tasks and
     sinks get none. *)
  (match entry_for (t "a") with
   | Some { Annot.inf_entries = [ (x, []) ]; _ } ->
     check_bool "a's entry names x" true (x = t "x")
   | _ -> Alcotest.fail "expected an empty entry for source a");
  check_bool "fully annotated d not re-inferred" true (entry_for (t "d") = None);
  check_bool "sink e not inferred" true (entry_for (t "e") = None);
  check_int "fixpoint verified on the second pass" 2 result.Annot.iterations

let test_infer_idempotent () =
  List.iter
    (fun spec ->
      let annotated = sprinkle_annotations ~seed:(1 + Spec.n_tasks spec) spec in
      let first = Annot.infer ~domains:1 annotated in
      let applied = apply_inferred annotated first in
      let second = Annot.infer ~domains:1 applied in
      check_bool "nothing left to infer after applying" true
        (second.Annot.inferred = []);
      (* Applying the inferred entries must not change liveness: the same
         edges are dead before and after. *)
      check_bool "dead edges unchanged by application" true
        (Flow.dead_edges (Flow.compute ~domains:1 applied)
        = Flow.dead_edges (Flow.compute ~domains:1 annotated)))
    (small_specs ())

let test_infer_unannotated_spec_defaults_to_all_inputs () =
  let spec = Gen.generate Gen.Pipeline ~seed:6 ~size:20 in
  let result = Annot.infer ~domains:1 spec in
  List.iter
    (fun { Annot.inf_task; inf_entries } ->
      List.iter
        (fun (c, producers) ->
          ignore c;
          check_bool "annotation-free inference keeps every input" true
            (producers = Spec.producers spec inf_task))
        inf_entries)
    result.Annot.inferred

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "dataflow",
        [ Alcotest.test_case "matches closure on DAG families" `Quick
            test_dataflow_matches_closure;
          Alcotest.test_case "parallel identical to sequential" `Quick
            test_dataflow_parallel_identical;
          Alcotest.test_case "backward direction" `Quick test_dataflow_backward;
          Alcotest.test_case "cyclic fallback" `Quick test_dataflow_cyclic ] );
      ( "flow",
        [ Alcotest.test_case "no annotations = plain reachability" `Quick
            test_flow_without_annotations_is_reachability;
          Alcotest.test_case "fine-grained implies coarse" `Quick
            test_flow_refines_reachability;
          Alcotest.test_case "diamond hand example" `Quick
            test_flow_hand_example;
          Alcotest.test_case "missing entries default to all inputs" `Quick
            test_flow_effective_entry_defaults;
          Alcotest.test_case "parallel identical" `Quick
            test_flow_parallel_identical ] );
      ( "annotations",
        [ Alcotest.test_case "validation finds exact issues" `Quick
            test_validate_issues;
          Alcotest.test_case "clean and unannotated specs are silent" `Quick
            test_validate_clean_and_unannotated;
          Alcotest.test_case "inference completes and prunes" `Quick
            test_infer_completes_and_prunes;
          Alcotest.test_case "inference is idempotent" `Quick
            test_infer_idempotent;
          Alcotest.test_case "annotation-free inference is all-inputs" `Quick
            test_infer_unannotated_spec_defaults_to_all_inputs ] ) ]
