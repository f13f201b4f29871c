(* Tests for the interactive editing session (incremental validation), the
   minimal unsound core, the anytime exact corrector, mixed split/merge
   resolution, and the chain reachability index. *)

open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Ref = Def23_reference
module Session = Wolves_core.Session
module Bitset = Wolves_graph.Bitset
module Reach = Wolves_graph.Reach
module Digraph = Wolves_graph.Digraph
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module Prng = Wolves_workload.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Session                                                              *)
(* ------------------------------------------------------------------ *)

let test_session_fresh () =
  let spec, _ = Examples.figure1 () in
  let s = Session.start_fresh spec in
  check_int "singleton composites" 12 (List.length (Session.composite_names s));
  check_bool "singleton view sound" true (Session.is_sound s);
  check_int "12 checks" 12 (Session.checks_performed s);
  (* Re-validating is free. *)
  check_bool "still sound" true (Session.is_sound s);
  check_int "no further checks" 12 (Session.checks_performed s);
  check_int "12 hits" 12 (Session.cache_hits s)

let test_session_build_fig1 () =
  let spec, view = Examples.figure1 () in
  let s = Session.start_fresh spec in
  let t name = Spec.task_of_name_exn spec name in
  (* Recreate the paper's composite 16 — the validator flags it at once. *)
  (match
     Session.create_composite s ~name:"16"
       [ t "4:Curate Annotations"; t "7:Create Alignment" ]
   with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  (match Session.unsound s with
   | [ ("16", witnesses) ] ->
     check_bool "paper witness"
       true
       (List.mem (t "4:Curate Annotations", t "7:Create Alignment") witnesses)
   | other ->
     Alcotest.failf "expected exactly composite 16, got %d" (List.length other));
  (* Splitting it back with the corrector makes the session sound again. *)
  (match Session.apply_correction s "16" C.Strong with
   | Ok parts -> check_int "split into 2" 2 parts
   | Error msg -> Alcotest.fail msg);
  check_bool "sound after correction" true (Session.is_sound s);
  ignore view

let test_session_incremental_cost () =
  let spec = Gen.generate Gen.Layered ~seed:8 ~size:60 in
  let s = Session.start (Views.build ~seed:8 (Views.Connected_groups 4) spec) in
  let _ = Session.unsound s in
  let baseline = Session.checks_performed s in
  check_int "one check per composite"
    (List.length (Session.composite_names s))
    baseline;
  (* One move dirties exactly two composites. *)
  let names = Session.composite_names s in
  let target = List.nth names 0 in
  let source = List.nth names (List.length names - 1) in
  let task = List.hd (Option.get (Session.members s source)) in
  (match Session.move_task s task ~into:target with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  let _ = Session.unsound s in
  let after = Session.checks_performed s in
  check_bool "at most 2 re-checks" true (after - baseline <= 2)

let test_session_edits () =
  let spec =
    Spec.of_tasks_exn ~name:"tiny" [ "a"; "b"; "c"; "d" ]
      [ ("a", "b"); ("b", "c"); ("c", "d") ]
  in
  let s = Session.start_fresh spec in
  let t name = Spec.task_of_name_exn spec name in
  (* Error paths. *)
  (match Session.create_composite s ~name:"a" [ t "b" ] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "duplicate name accepted");
  (match Session.create_composite s ~name:"X" [] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "empty composite accepted");
  (match Session.create_composite s ~name:"X" [ t "b"; t "b" ] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "duplicate members accepted");
  (match Session.move_task s (t "a") ~into:"nope" with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "unknown target accepted");
  (* A real reshuffle: {a,b} {c,d} via create + move. *)
  (match Session.create_composite s ~name:"front" [ t "a"; t "b" ] with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match Session.move_task s (t "d") ~into:"c" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_int "two composites left" 2 (List.length (Session.composite_names s));
  check_bool "both sound (chains)" true (Session.is_sound s);
  (* rename, dissolve *)
  (match Session.rename s "front" ~into:"head" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_bool "renamed" true (Session.members s "head" <> None);
  (match Session.dissolve s "head" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_int "dissolved to singletons" 3 (List.length (Session.composite_names s));
  (* materialise *)
  let view = Session.current_view s in
  check_int "view matches" 3 (View.n_composites view)

(* Property: a session following random edits agrees with the from-scratch
   validator at every step. *)
let prop_session_agrees =
  QCheck2.Test.make ~name:"session verdicts = full validator after edits"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 10 30) (int_range 1 30))
    (fun (seed, size, edits) ->
      let spec = Gen.generate Gen.Pipeline ~seed ~size in
      let s = Session.start (Views.build ~seed (Views.Connected_groups 3) spec) in
      let rng = Prng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to edits do
        let names = Session.composite_names s in
        let task = Prng.int rng size in
        let target = Prng.pick rng names in
        (match Session.move_task s task ~into:target with
         | Ok () | Error _ -> ());
        let session_unsound =
          List.sort compare (List.map fst (Session.unsound s))
        in
        let view = Session.current_view s in
        let full =
          List.sort compare
            (List.map
               (fun (c, _) -> View.composite_name view c)
               (S.validate view).S.unsound)
        in
        if session_unsound <> full then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Minimal unsound core                                                 *)
(* ------------------------------------------------------------------ *)

let test_minimal_core_fig3 () =
  let spec, view = Examples.figure3 () in
  let t = Examples.figure3_composite view in
  let set =
    Bitset.of_list (Spec.n_tasks spec) (View.members view t)
  in
  match S.minimal_unsound_core spec set with
  | None -> Alcotest.fail "T is unsound"
  | Some core ->
    check_bool "core unsound" false (S.subset_sound spec core);
    check_bool "core within T" true (Bitset.subset core set);
    (* minimality: removing any member makes it sound *)
    Bitset.iter
      (fun x ->
        let smaller = Bitset.copy core in
        Bitset.remove smaller x;
        check_bool "removing any member restores soundness" true
          (S.subset_sound spec smaller))
      core;
    check_int "the 2-chain core" 2 (Bitset.cardinal core)

let test_minimal_core_sound_input () =
  let spec, _ = Examples.figure1 () in
  let all = Bitset.create (Spec.n_tasks spec) in
  Bitset.fill all;
  check_bool "sound input -> None" true (S.minimal_unsound_core spec all = None)

let prop_minimal_core =
  QCheck2.Test.make ~name:"minimal unsound cores are minimal and unsound"
    ~count:100
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 8 30) (int_range 3 10))
    (fun (seed, size, k) ->
      let spec = Gen.generate Gen.Erdos_renyi ~seed ~size in
      let rng = Prng.create (seed + 7) in
      let members =
        List.filteri (fun i _ -> i < k) (Prng.shuffle rng (Spec.tasks spec))
      in
      let set = Bitset.of_list size members in
      match S.minimal_unsound_core spec set with
      | None -> S.subset_sound spec set
      | Some core ->
        (not (S.subset_sound spec core))
        && Bitset.subset core set
        && Bitset.for_all
             (fun x ->
               let smaller = Bitset.copy core in
               Bitset.remove smaller x;
               S.subset_sound spec smaller)
             core)

(* ------------------------------------------------------------------ *)
(* Anytime exact corrector                                              *)
(* ------------------------------------------------------------------ *)

let test_anytime_fig3 () =
  let spec, view = Examples.figure3 () in
  let members = View.members view (Examples.figure3_composite view) in
  let outcome, proven = C.split_subset_anytime spec members in
  check_bool "proven optimal" true proven;
  check_int "5 parts like the DP" 5 (List.length outcome.C.parts);
  check_bool "valid split" true (Ref.Oracle.valid_split spec members outcome.C.parts)

let test_anytime_budget () =
  (* A widish instance with a tiny budget: must return a valid (incumbent)
     split and report non-completion. *)
  let spec, members = Wolves_core.Hardness.wide_block_instance ~width:8 in
  let outcome, proven = C.split_subset_anytime ~node_budget:10 spec members in
  check_bool "budget exhausted" false proven;
  check_bool "still a valid split" true
    (Ref.Oracle.valid_split spec members outcome.C.parts);
  check_int "incumbent = strong result" 2 (List.length outcome.C.parts)

let prop_anytime_matches_dp =
  QCheck2.Test.make ~name:"anytime B&B = subset DP on small instances"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 8 24) (int_range 3 10))
    (fun (seed, size, k) ->
      let spec = Gen.generate Gen.Layered ~seed ~size in
      let rng = Prng.create (seed + 3) in
      let members =
        List.sort compare
          (List.filteri (fun i _ -> i < k) (Prng.shuffle rng (Spec.tasks spec)))
      in
      let dp = C.split_subset C.Optimal spec members in
      let bb, proven = C.split_subset_anytime spec members in
      proven
      && List.length bb.C.parts = List.length dp.C.parts
      && Ref.Oracle.valid_split spec members bb.C.parts)

(* ------------------------------------------------------------------ *)
(* Mixed resolution                                                     *)
(* ------------------------------------------------------------------ *)

let test_resolve_auto_fig1 () =
  let _, view = Examples.figure1 () in
  let resolved, decisions = C.resolve_auto view in
  check_bool "sound" true (S.is_sound resolved);
  check_int "one decision" 1 (List.length decisions);
  (* 16 splits into 2 (cost 1) vs merge absorbing several: split wins. *)
  match decisions with
  | [ { C.composite = "16:Align Sequences"; action = `Split 2 } ] -> ()
  | [ d ] -> Alcotest.failf "unexpected decision: %a" C.pp_decision d
  | _ -> Alcotest.fail "expected one decision"

let test_resolve_auto_prefers_merge () =
  (* Five independent chains split into 5 parts (cost 4), but absorbing the
     single source composite makes the whole thing sound at cost 1: the
     mixed resolver must pick the merge. *)
  let spec, members = Wolves_core.Hardness.blocks_instance ~blocks:0 ~chains:5 in
  let view =
    Wolves_workflow.View.make_exn spec
      [ ("Source", [ "source" ]);
        ("Block", List.map (Spec.task_name spec) members);
        ("Sink", [ "sink" ]) ]
  in
  let resolved, decisions = C.resolve_auto view in
  check_bool "sound" true (S.is_sound resolved);
  match decisions with
  | [ { C.action = `Merge _; _ } ] -> ()
  | [ { C.action = `Split parts; _ } ] ->
    Alcotest.failf "expected a merge, got a split into %d" parts
  | _ -> Alcotest.fail "expected one decision"

let prop_resolve_auto_sound =
  QCheck2.Test.make ~name:"resolve_auto always produces a sound view"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 8 30) (int_range 2 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Random_partition k) spec in
      let resolved, _ = C.resolve_auto view in
      S.is_sound resolved)

(* ------------------------------------------------------------------ *)
(* Strong-closure branching                                             *)
(* ------------------------------------------------------------------ *)

let test_strong_closure_branches () =
  (* T = {p, x, y, q} with p -> x and y -> q only: repairing the bad pair
     (x, y) can absorb either x's supplier p or y's consumer q — both moves
     are available, exercising the branching path of the closure search. *)
  let spec =
    Spec.of_tasks_exn ~name:"branchy"
      [ "s"; "p"; "x"; "y"; "q"; "t" ]
      [ ("s", "p"); ("p", "x"); ("y", "q"); ("q", "t") ]
  in
  let members = List.map (Spec.task_of_name_exn spec) [ "p"; "x"; "y"; "q" ] in
  let strong = C.split_subset C.Strong spec members in
  check_bool "certified" true strong.C.certified_strong;
  check_bool "valid" true (Ref.Oracle.valid_split spec members strong.C.parts);
  check_int "two chains" 2 (List.length strong.C.parts)


(* ------------------------------------------------------------------ *)
(* Automatic view construction (Suggest)                               *)
(* ------------------------------------------------------------------ *)

module Suggest = Wolves_core.Suggest

let test_suggest_fig1 () =
  let spec, _ = Examples.figure1 () in
  let greedy = Suggest.greedy_sound_groups spec ~max_size:4 in
  let banded = Suggest.optimal_sound_banding spec ~max_size:4 in
  let check_grouping tag groups =
    let view = Suggest.view_of_groups spec groups in
    check_bool (tag ^ " sound") true (Wolves_core.Soundness.is_sound view);
    check_int (tag ^ " covers all tasks") 12
      (List.fold_left (fun acc g -> acc + List.length g) 0 groups)
  in
  check_grouping "greedy" greedy;
  check_grouping "banded" banded;
  check_bool "optimal banding no worse than greedy" true
    (List.length banded <= List.length greedy);
  check_bool "compressive" true (List.length banded < 12)

let test_suggest_args () =
  let spec, _ = Examples.figure1 () in
  Alcotest.check_raises "greedy max_size"
    (Invalid_argument "Suggest.greedy_sound_groups: max_size < 1") (fun () ->
      ignore (Suggest.greedy_sound_groups spec ~max_size:0));
  Alcotest.check_raises "banding max_size"
    (Invalid_argument "Suggest.optimal_sound_banding: max_size < 1") (fun () ->
      ignore (Suggest.optimal_sound_banding spec ~max_size:0))

let prop_suggest_sound =
  QCheck2.Test.make
    ~name:"suggested views are always sound and partition the tasks"
    ~count:80
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 5 60) (int_range 1 8))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let greedy = Suggest.greedy_sound_groups spec ~max_size:k in
      let banded = Suggest.optimal_sound_banding spec ~max_size:k in
      List.for_all
        (fun groups ->
          let view = Suggest.view_of_groups spec groups in
          Wolves_core.Soundness.is_sound view
          && List.for_all (fun g -> List.length g <= k) groups
          && List.sort compare (List.concat groups) = Spec.tasks spec)
        [ greedy; banded ]
      && List.length banded <= List.length greedy)


let test_fork_join_regions () =
  (* A pipeline with explicit fork-join fans collapses to few composites. *)
  let spec = Gen.generate Gen.Pipeline ~seed:6 ~size:40 in
  let groups = Suggest.fork_join_regions spec in
  let view = Suggest.view_of_groups spec groups in
  check_bool "fork-join view sound" true (Wolves_core.Soundness.is_sound view);
  check_bool "collapsed something" true
    (List.exists (fun g -> List.length g >= 3) groups);
  (* Figure 1: the whole workflow is one fork (task 2) without a clean join
     covering 9/10; at least the construction stays sound. *)
  let spec1, _ = Examples.figure1 () in
  let view1 = Suggest.view_of_groups spec1 (Suggest.fork_join_regions spec1) in
  check_bool "figure 1 fork-join view sound" true
    (Wolves_core.Soundness.is_sound view1)

let prop_fork_join_sound =
  QCheck2.Test.make ~name:"fork-join regions always give sound views"
    ~count:80
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 5 80))
    (fun (seed, size) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let groups = Suggest.fork_join_regions spec in
      let view = Suggest.view_of_groups spec groups in
      Wolves_core.Soundness.is_sound view
      && List.sort compare (List.concat groups) = Spec.tasks spec)


let test_session_undo () =
  let spec, _ = Examples.figure1 () in
  let s = Session.start_fresh spec in
  let t name = Spec.task_of_name_exn spec name in
  check_int "no history" 0 (Session.history_depth s);
  check_bool "nothing to undo" false (Session.undo s);
  (* Build the unsound composite, validate, then undo it. *)
  (match
     Session.create_composite s ~name:"16"
       [ t "4:Curate Annotations"; t "7:Create Alignment" ]
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_int "one undoable edit" 1 (Session.history_depth s);
  check_int "one unsound" 1 (List.length (Session.unsound s));
  check_bool "undo succeeds" true (Session.undo s);
  check_bool "back to the sound singleton view" true (Session.is_sound s);
  check_int "12 singletons again" 12 (List.length (Session.composite_names s));
  (* Undo restores cached verdicts: no new checks needed. *)
  let before = Session.checks_performed s in
  check_bool "still sound" true (Session.is_sound s);
  check_bool "at most 2 fresh checks after undo" true
    (Session.checks_performed s - before <= 2);
  (* Failed edits leave no history entry. *)
  let depth = Session.history_depth s in
  (match Session.create_composite s ~name:"16" [] with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "empty composite accepted");
  check_int "failed edit not recorded" depth (Session.history_depth s)

let test_session_undo_chain () =
  let spec, view = Examples.figure3 () in
  ignore spec;
  let s = Session.start view in
  let partition () =
    List.sort compare
      (List.map (fun n -> Option.get (Session.members s n))
         (Session.composite_names s))
  in
  let p0 = partition () in
  (match Session.apply_correction s "T" C.Strong with
   | Ok parts -> check_int "5 parts" 5 parts
   | Error m -> Alcotest.fail m);
  let p1 = partition () in
  check_bool "partition changed" true (p0 <> p1);
  (match Session.dissolve s "T/1" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  check_bool "undo dissolve" true (Session.undo s);
  check_bool "back to corrected" true (partition () = p1);
  check_bool "undo correction" true (Session.undo s);
  check_bool "back to original" true (partition () = p0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_session_and_extensions"
    [ ( "session",
        [ Alcotest.test_case "fresh session" `Quick test_session_fresh;
          Alcotest.test_case "rebuild figure 1 interactively" `Quick
            test_session_build_fig1;
          Alcotest.test_case "incremental cost" `Quick test_session_incremental_cost;
          Alcotest.test_case "edits and errors" `Quick test_session_edits;
          Alcotest.test_case "undo" `Quick test_session_undo;
          Alcotest.test_case "undo chain" `Quick test_session_undo_chain;
          qt prop_session_agrees ] );
      ( "minimal-core",
        [ Alcotest.test_case "figure 3 core" `Quick test_minimal_core_fig3;
          Alcotest.test_case "sound input" `Quick test_minimal_core_sound_input;
          qt prop_minimal_core ] );
      ( "anytime",
        [ Alcotest.test_case "figure 3" `Quick test_anytime_fig3;
          Alcotest.test_case "budget exhaustion" `Quick test_anytime_budget;
          qt prop_anytime_matches_dp ] );
      ( "resolve-auto",
        [ Alcotest.test_case "figure 1 splits" `Quick test_resolve_auto_fig1;
          Alcotest.test_case "wide block merges" `Quick
            test_resolve_auto_prefers_merge;
          qt prop_resolve_auto_sound ] );
      ( "strong-branching",
        [ Alcotest.test_case "two-sided repair" `Quick test_strong_closure_branches ] );
      ( "suggest",
        [ Alcotest.test_case "figure 1 constructions" `Quick test_suggest_fig1;
          Alcotest.test_case "argument validation" `Quick test_suggest_args;
          Alcotest.test_case "fork-join regions" `Quick test_fork_join_regions;
          qt prop_suggest_sound;
          qt prop_fork_join_sound ] ) ]
