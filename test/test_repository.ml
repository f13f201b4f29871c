(* Tests for the repository: synthesis, audit, batch correction, MoML
   directory persistence, and workload generator/view-policy invariants. *)

open Wolves_workflow
module R = Wolves_repository.Repository
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module Prng = Wolves_workload.Prng
module Algo = Wolves_graph.Algo

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let seq rng = List.init 50 (fun _ -> Prng.int rng 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Prng.create 43 in
  check_bool "different seed, different stream" true (seq (Prng.create 42) <> seq c)

let test_prng_ranges () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 17 in
    check_bool "int in range" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 1_000 do
    let f = Prng.float rng 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_shuffle () =
  let rng = Prng.create 1 in
  let original = List.init 100 Fun.id in
  let shuffled = Prng.shuffle rng original in
  check_bool "permutation" true (List.sort compare shuffled = original);
  check_bool "actually moved" true (shuffled <> original)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generators_shape () =
  List.iter
    (fun family ->
      List.iter
        (fun size ->
          let spec = Gen.generate family ~seed:11 ~size in
          check_int
            (Printf.sprintf "%s size" (Gen.family_name family))
            size (Spec.n_tasks spec);
          check_bool "acyclic" true (Algo.is_dag (Spec.graph spec));
          (* no isolated tasks *)
          List.iter
            (fun t ->
              check_bool "task connected" true
                (Spec.producers spec t <> [] || Spec.consumers spec t <> []))
            (Spec.tasks spec))
        [ 2; 5; 10; 30; 100 ])
    Gen.all_families

let test_generator_determinism () =
  List.iter
    (fun family ->
      let a = Gen.generate family ~seed:5 ~size:25 in
      let b = Gen.generate family ~seed:5 ~size:25 in
      check_bool "same seed, same graph" true
        (Wolves_graph.Digraph.equal (Spec.graph a) (Spec.graph b)))
    Gen.all_families

let test_layered_direct () =
  let spec = Gen.layered ~seed:3 ~layers:5 ~width:4 ~fanout:1.5 in
  check_int "20 tasks" 20 (Spec.n_tasks spec);
  check_bool "acyclic" true (Algo.is_dag (Spec.graph spec))

(* ------------------------------------------------------------------ *)
(* View policies                                                       *)
(* ------------------------------------------------------------------ *)

let test_view_policies_are_partitions () =
  let spec = Gen.generate Gen.Layered ~seed:21 ~size:40 in
  List.iter
    (fun policy ->
      let view = Views.build ~seed:9 policy spec in
      (* of_partition_exn already validates; check group sizes are sane. *)
      check_int
        (Printf.sprintf "%s covers all tasks" (Views.policy_name policy))
        40
        (List.fold_left
           (fun acc c -> acc + List.length (View.members view c))
           0 (View.composites view)))
    [ Views.Topological_bands 5; Views.Connected_groups 5; Views.Random_partition 5 ]

let test_inject_unsoundness () =
  let spec = Gen.generate Gen.Pipeline ~seed:2 ~size:30 in
  let view = Views.build ~seed:2 (Views.Connected_groups 4) spec in
  let perturbed = Views.inject_unsoundness ~seed:3 ~attempts:200 view in
  check_bool "perturbed view unsound" false (S.is_sound perturbed)

let test_unsound_corpus () =
  let corpus =
    Views.unsound_corpus ~seed:4 ~families:[ Gen.Layered; Gen.Pipeline ]
      ~sizes:[ 20; 30 ] ~per_cell:3
  in
  check_int "corpus size" 12 (List.length corpus);
  let unsound = List.filter (fun (_, v) -> not (S.is_sound v)) corpus in
  check_bool "most entries unsound" true (List.length unsound >= 8)

(* ------------------------------------------------------------------ *)
(* Repository                                                          *)
(* ------------------------------------------------------------------ *)

let test_repo_add_find () =
  let repo = R.create () in
  let spec, view = Examples.figure1 () in
  let id = R.add repo ~origin:"manual" spec view in
  check_int "size" 1 (R.size repo);
  check_bool "find" true (R.find repo id <> None);
  check_bool "missing" true (R.find repo "nope" = None);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Repository.add: duplicate id \"wf0000\"") (fun () ->
      ignore (R.add repo ~id:"wf0000" ~origin:"manual" spec view))

let test_repo_audit_and_correct () =
  let repo = R.synthesize ~seed:99 ~per_cell:2 ~sizes:[ 16; 24 ] () in
  (* 4 families x 2 sizes x 3 policies x 2 = 48 entries *)
  check_int "synthesized size" 48 (R.size repo);
  let audit = R.audit repo in
  check_int "audit covers all" 48 audit.R.total;
  check_bool "survey finds unsound views (the paper's observation)" true
    (audit.R.unsound_views > 0);
  check_bool "origin breakdown sums to total" true
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 audit.R.by_origin = 48);
  let corrected_repo, repaired = R.correct_all C.Strong repo in
  check_int "repaired = unsound count" audit.R.unsound_views repaired;
  let audit' = R.audit corrected_repo in
  check_int "everything sound after correction" 0 audit'.R.unsound_views;
  (* Sound entries are kept as they are; only corrected ones change
     origin. *)
  List.iter
    (fun a ->
      let e = a.R.entry in
      let e' = Option.get (R.find corrected_repo e.R.id) in
      if a.R.unsound_composites = 0 then
        check_bool "sound entry kept" true
          (e'.R.view == e.R.view && e'.R.origin = e.R.origin)
      else
        check_bool "corrected entry marked" true
          (e'.R.origin = e.R.origin ^ "+corrected"))
    audit.R.per_entry

let test_repo_persistence () =
  let repo = R.synthesize ~seed:7 ~per_cell:1 ~sizes:[ 12 ] () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wolves_repo_test" in
  (match R.save_dir dir repo with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save_dir: %a" R.pp_io_error e);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "temporary file left behind: %s" f)
    (Sys.readdir dir);
  (match R.load_dir dir with
   | Error e -> Alcotest.failf "load_dir: %a" R.pp_io_error e
   | Ok repo' ->
     check_int "same entry count" (R.size repo) (R.size repo');
     List.iter2
       (fun a b ->
         check_int "same composites" (View.n_composites a.R.view)
           (View.n_composites b.R.view);
         check_int "same tasks" (Spec.n_tasks a.R.spec) (Spec.n_tasks b.R.spec))
       (R.entries repo) (R.entries repo'));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match R.load_dir "/nonexistent-dir" with
  | Error (R.Io_error _) -> ()
  | Error (R.Entry_error _) ->
    Alcotest.fail "expected a filesystem error, got an entry error"
  | Ok _ -> Alcotest.fail "expected an error for a missing directory"


let test_repo_id_validation () =
  let repo = R.create () in
  let spec, view = Examples.figure1 () in
  (* Ids become file basenames: anything that could navigate outside the
     save_dir target directory must be rejected at insertion. *)
  List.iter
    (fun bad ->
      match R.add repo ~id:bad ~origin:"manual" spec view with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "id %S accepted" bad)
    [ ""; "."; ".."; "a/b"; "../escape"; "a\\b"; "evil/../../etc"; "nul\000id" ];
  check_int "nothing was inserted" 0 (R.size repo);
  (* Benign ids still work, including dots inside the name. *)
  List.iter
    (fun good -> ignore (R.add repo ~id:good ~origin:"manual" spec view))
    [ "plain"; "with-dash_и_unicode"; "v1.2.3"; ".hidden-ish" ]

let test_repo_save_dir_sweeps_stale_tmp () =
  let repo = R.synthesize ~seed:8 ~per_cell:1 ~sizes:[ 8 ] ~policies:[ Views.Random_partition 3 ] () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wolves_repo_tmp_sweep" in
  Sys.mkdir dir 0o755;
  let stale = Filename.concat dir "wf0000.moml.999-1.tmp" in
  Out_channel.with_open_text stale (fun oc ->
      Out_channel.output_string oc "half a workflow");
  (match R.save_dir dir repo with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save_dir: %a" R.pp_io_error e);
  check_bool "stale temporary swept" false (Sys.file_exists stale);
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        Alcotest.failf "temporary left behind: %s" f)
    (Sys.readdir dir);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_repo_lenient_load () =
  let repo = R.synthesize ~seed:9 ~per_cell:1 ~sizes:[ 8 ] ~policies:[ Views.Random_partition 3 ] () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wolves_repo_lenient" in
  (match R.save_dir dir repo with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save_dir: %a" R.pp_io_error e);
  (* Corrupt one entry and add one unparsable stray. *)
  let victim =
    Filename.concat dir
      (Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".moml")
      |> List.sort compare |> List.hd)
  in
  Out_channel.with_open_text victim (fun oc ->
      Out_channel.output_string oc "<moml but torn");
  Out_channel.with_open_text (Filename.concat dir "stray.moml") (fun oc ->
      Out_channel.output_string oc "not xml at all");
  (match R.load_dir dir with
   | Ok _ -> Alcotest.fail "strict load must fail on a corrupt entry"
   | Error _ -> ());
  (match R.load_dir_lenient dir with
   | Error e -> Alcotest.failf "lenient load: %a" R.pp_io_error e
   | Ok (repo', failed) ->
     check_int "good entries loaded" (R.size repo - 1) (R.size repo');
     check_int "two failures collected" 2 (List.length failed);
     List.iter
       (fun (file, _) ->
         check_bool "failure names a real file" true
           (Sys.file_exists (Filename.concat dir file)))
       failed);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let test_repo_store_roundtrip () =
  let repo = R.synthesize ~seed:12 ~per_cell:1 ~sizes:[ 10 ] () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wolves_repo_store" in
  rm_rf dir;
  (match R.save_store dir repo with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save_store: %a" R.pp_io_error e);
  (match R.load_store dir with
   | Error e -> Alcotest.failf "load_store: %a" R.pp_io_error e
   | Ok repo' ->
     check_int "same entry count" (R.size repo) (R.size repo');
     List.iter
       (fun e ->
         match R.find repo' e.R.id with
         | None -> Alcotest.failf "entry %s lost" e.R.id
         | Some e' ->
           check_int "same tasks" (Spec.n_tasks e.R.spec) (Spec.n_tasks e'.R.spec);
           check_int "same composites" (View.n_composites e.R.view)
             (View.n_composites e'.R.view))
       (R.entries repo));
  (* Re-saving supersedes: same ids, one logical copy. *)
  (match R.save_store dir repo with
   | Ok () -> ()
   | Error e -> Alcotest.failf "re-save: %a" R.pp_io_error e);
  (match R.load_store dir with
   | Error e -> Alcotest.failf "re-load: %a" R.pp_io_error e
   | Ok repo' -> check_int "still one copy per id" (R.size repo) (R.size repo'));
  rm_rf dir

let test_repo_update () =
  let repo = R.create () in
  let spec, view = Examples.figure1 () in
  let id = R.add repo ~origin:"manual" spec view in
  (* Evolve: drop the display task. *)
  let new_spec =
    Spec.of_tasks_exn ~name:"phylogenomic-inference"
      (List.filter (fun n -> n <> "12:Display Tree")
         (List.map (Spec.task_name spec) (Spec.tasks spec)))
      (List.filter_map
         (fun (u, v) ->
           let nu = Spec.task_name spec u and nv = Spec.task_name spec v in
           if nv = "12:Display Tree" then None else Some (nu, nv))
         (Wolves_graph.Digraph.edges (Spec.graph spec)))
  in
  (match R.update repo ~id new_spec with
   | Error msg -> Alcotest.fail msg
   | Ok impact ->
     check_int "view migrated" 7
       (View.n_composites impact.Wolves_core.Evolution.new_view));
  (match R.find repo id with
   | Some entry ->
     check_int "entry replaced" 11 (Spec.n_tasks entry.R.spec);
     check_bool "origin marked" true
       (String.length entry.R.origin > String.length "manual")
   | None -> Alcotest.fail "entry vanished");
  match R.update repo ~id:"ghost" new_spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown id accepted"

let () =
  Alcotest.run "wolves_repository"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle ] );
      ( "generators",
        [ Alcotest.test_case "families produce valid DAGs" `Quick
            test_generators_shape;
          Alcotest.test_case "deterministic in seed" `Quick
            test_generator_determinism;
          Alcotest.test_case "layered direct" `Quick test_layered_direct ] );
      ( "views",
        [ Alcotest.test_case "policies are partitions" `Quick
            test_view_policies_are_partitions;
          Alcotest.test_case "unsoundness injection" `Quick test_inject_unsoundness;
          Alcotest.test_case "unsound corpus" `Quick test_unsound_corpus ] );
      ( "repository",
        [ Alcotest.test_case "add and find" `Quick test_repo_add_find;
          Alcotest.test_case "audit and batch correction" `Quick
            test_repo_audit_and_correct;
          Alcotest.test_case "MoML directory persistence" `Quick
            test_repo_persistence;
          Alcotest.test_case "id validation" `Quick test_repo_id_validation;
          Alcotest.test_case "save_dir sweeps stale temporaries" `Quick
            test_repo_save_dir_sweeps_stale_tmp;
          Alcotest.test_case "lenient directory load" `Quick
            test_repo_lenient_load;
          Alcotest.test_case "store round-trip" `Quick test_repo_store_roundtrip;
          Alcotest.test_case "versioned update" `Quick test_repo_update ] ) ]
