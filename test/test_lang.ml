(* Tests for the .wf workflow DSL: parsing, error positions, round-trips,
   and cross-format agreement with MoML. *)

open Wolves_workflow
module Wfdsl = Wolves_lang.Wfdsl
module Moml = Wolves_moml.Moml
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "DSL error: %a" Wfdsl.pp_error e

let sample =
  {|# a small analysis
workflow "demo" {
  task "fetch";
  task "clean";
  task "join";     # trailing comments are fine
  task "report";
  task "audit";

  "fetch" -> "clean" -> "join";
  "clean" -> "audit";
  "join" -> "report";

  composite "Prepare" { "fetch" "clean" }
  composite "Publish" { "join" "report" }
}
|}

let test_parse_sample () =
  let spec, view = ok (Wfdsl.of_string sample) in
  Alcotest.(check string) "name" "demo" (Spec.name spec);
  check_int "tasks" 5 (Spec.n_tasks spec);
  check_int "edges (chain sugar expands)" 4 (Spec.n_dependencies spec);
  check_bool "chain edge 1" true
    (Spec.depends spec (Spec.task_of_name_exn spec "fetch")
       (Spec.task_of_name_exn spec "join"));
  check_int "composites: 2 declared + 1 singleton" 3 (View.n_composites view);
  check_bool "singleton for audit" true (View.composite_of_name view "audit" <> None)

let test_parse_errors () =
  let cases =
    [ ("", "expected 'workflow'");
      ("workflow \"w\" {", "missing '}'");
      ("workflow \"w\" { task \"a\" }", "expected ';'");
      ("workflow \"w\" { task \"a\"; task \"a\"; }", "declared twice");
      ("workflow \"w\" { \"a\" -> \"b\"; }", "unknown task \"a\"");
      ("workflow \"w\" { task \"a\"; \"a\"; }", "at least two tasks");
      ("workflow \"w\" { task \"a\"; composite \"c\" { \"a\" } composite \"d\" { \"a\" } }",
       "already in a composite");
      ("workflow \"w\" { task \"a\"; } extra", "unknown keyword");
      ("workflow \"w\" { task \"a; }", "unterminated name");
      ("workflow \"w\" { task \"a\"; - }", "expected '->'");
      ("workflow \"w\" { task \"a\"; task \"b\"; \"a\" -> \"b\" -> ; }",
       "expected a task name after '->'");
      ("workflow \"w\" { task \"a\"; ? }", "unexpected character");
      ("workflow \"w\" { task \"a\"; task \"b\"; \"a\" -> \"b\"; \"b\" -> \"a\"; }",
       "dependency cycle") ]
  in
  List.iter
    (fun (src, fragment) ->
      match Wfdsl.of_string src with
      | Ok _ -> Alcotest.failf "expected %S to fail (%s)" src fragment
      | Error e ->
        let msg = Format.asprintf "%a" Wfdsl.pp_error e in
        let contains =
          let ln = String.length fragment and lh = String.length msg in
          let rec go i = i + ln <= lh && (String.sub msg i ln = fragment || go (i + 1)) in
          go 0
        in
        check_bool (Printf.sprintf "%s in %s" fragment msg) true contains)
    cases

let test_error_positions () =
  match Wfdsl.of_string "workflow \"w\" {\n  task \"a\";\n  bogus\n}" with
  | Error e ->
    check_int "line" 3 e.Wfdsl.line;
    check_int "column" 3 e.Wfdsl.column
  | Ok _ -> Alcotest.fail "expected failure"

let test_escapes () =
  let spec, _ =
    ok (Wfdsl.of_string {|workflow "a\"b" { task "x\\y"; }|})
  in
  Alcotest.(check string) "workflow name" {|a"b|} (Spec.name spec);
  check_bool "task name" true (Spec.task_of_name spec {|x\y|} <> None)

let test_attributes () =
  let spec, _ =
    ok
      (Wfdsl.of_string
         {|workflow "w" {
  task "a" [ "duration" = "2.5", "mem" = "4G" ];
  task "b";
  "a" -> "b";
}|})
  in
  let a = Spec.task_of_name_exn spec "a" in
  Alcotest.(check (option string)) "attr" (Some "4G") (Spec.attr spec a "mem");
  Alcotest.(check (option (float 0.0))) "float attr" (Some 2.5)
    (Spec.float_attr spec a "duration");
  Alcotest.(check (list (pair string string))) "sorted attrs"
    [ ("duration", "2.5"); ("mem", "4G") ]
    (Spec.attrs spec a);
  (* Engine picks the duration up. *)
  let d = Wolves_engine.Engine.durations_from_attrs spec in
  Alcotest.(check (float 0.0)) "duration read" 2.5 (d a);
  Alcotest.(check (float 0.0)) "default elsewhere" 1.0
    (d (Spec.task_of_name_exn spec "b"));
  (* DSL round trip preserves attributes. *)
  let view = View.singleton_view spec in
  let spec', _ = ok (Wfdsl.of_string (Wfdsl.to_string view)) in
  Alcotest.(check (list (pair string string))) "DSL round trip"
    (Spec.attrs spec a)
    (Spec.attrs spec' (Spec.task_of_name_exn spec' "a"));
  (* MoML round trip preserves attributes too. *)
  (match Moml.of_string (Moml.to_string view) with
   | Ok (spec'', _) ->
     Alcotest.(check (list (pair string string))) "MoML round trip"
       (Spec.attrs spec a)
       (Spec.attrs spec'' (Spec.task_of_name_exn spec'' "a"))
   | Error e -> Alcotest.failf "MoML: %a" Moml.pp_error e);
  (* Error paths. *)
  (match Wfdsl.of_string {|workflow "w" { task "a" [ "k" "v" ]; }|} with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing '=' accepted");
  match Wfdsl.of_string {|workflow "w" { task "a" [ ]; }|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty attr block accepted"

let test_roundtrip_figure1 () =
  let _, view = Examples.figure1 () in
  let spec', view' = ok (Wfdsl.of_string (Wfdsl.to_string view)) in
  check_int "tasks" 12 (Spec.n_tasks spec');
  check_int "deps" 12 (Spec.n_dependencies spec');
  check_int "composites" 7 (View.n_composites view');
  List.iter
    (fun c ->
      let name = View.composite_name view c in
      let c' = Option.get (View.composite_of_name view' name) in
      Alcotest.(check (list string)) name
        (List.map (Spec.task_name (View.spec view)) (View.members view c))
        (List.map (Spec.task_name spec') (View.members view' c')))
    (View.composites view)

let test_file_io () =
  let _, view = Examples.figure3 () in
  let path = Filename.temp_file "wolves" ".wf" in
  (match Wfdsl.save path view with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %a" Wfdsl.pp_error e);
  let spec', _ = ok (Wfdsl.load path) in
  Sys.remove path;
  check_int "tasks" 14 (Spec.n_tasks spec');
  match Wfdsl.load "/nonexistent.wf" with
  | Error e ->
    check_int "io errors at line 0" 0 e.Wfdsl.line;
    (* the bugfix: load errors name the file they came from *)
    Alcotest.(check (option string)) "file recorded"
      (Some "/nonexistent.wf") e.Wfdsl.file;
    let rendered = Format.asprintf "%a" Wfdsl.pp_error e in
    check_bool "rendering starts with the path" true
      (String.length rendered > 17
       && String.sub rendered 0 17 = "/nonexistent.wf: ")
  | Ok _ -> Alcotest.fail "expected io failure"

let test_load_error_positions () =
  (* Parse errors from [load] carry both the file and the position. *)
  let path = Filename.temp_file "wolves" ".wf" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "workflow \"w\" {\n  task task;\n}\n");
  (match Wfdsl.load path with
   | Error e ->
     Alcotest.(check (option string)) "file" (Some path) e.Wfdsl.file;
     check_int "line" 2 e.Wfdsl.line
   | Ok _ -> Alcotest.fail "bad document accepted");
  Sys.remove path;
  (* [of_string] errors have no file to name. *)
  match Wfdsl.of_string "workflow \"w\" {\n  task task;\n}\n" with
  | Error e -> Alcotest.(check (option string)) "no file" None e.Wfdsl.file
  | Ok _ -> Alcotest.fail "bad document accepted"

let test_source_map () =
  let _, _, sm = ok (Wfdsl.of_string_with_source sample) in
  check_int "workflow line" 2 sm.Wfdsl.workflow_position.Wfdsl.pos_line;
  check_int "workflow column" 10 sm.Wfdsl.workflow_position.Wfdsl.pos_column;
  check_int "task decls" 5 (List.length sm.Wfdsl.task_decls);
  (match List.assoc_opt "fetch" sm.Wfdsl.task_decls with
   | Some p ->
     check_int "fetch line" 3 p.Wfdsl.pos_line;
     check_int "fetch column" 8 p.Wfdsl.pos_column
   | None -> Alcotest.fail "fetch not in source map");
  check_int "edges (chain sugar splits)" 4 (List.length sm.Wfdsl.edge_occurrences);
  (match List.assoc_opt ("fetch", "clean") sm.Wfdsl.edge_occurrences with
   | Some p ->
     check_int "edge line" 9 p.Wfdsl.pos_line;
     check_int "edge column (producer token)" 3 p.Wfdsl.pos_column
   | None -> Alcotest.fail "edge not in source map");
  (* chain sugar: the second hop is anchored at its own producer *)
  (match List.assoc_opt ("clean", "join") sm.Wfdsl.edge_occurrences with
   | Some p -> check_int "chain hop line" 9 p.Wfdsl.pos_line
   | None -> Alcotest.fail "chain hop not in source map");
  match List.assoc_opt "Prepare" sm.Wfdsl.composite_decls with
  | Some p -> check_int "composite line" 13 p.Wfdsl.pos_line
  | None -> Alcotest.fail "Prepare not in source map"

(* --- deps annotation blocks --- *)

let annotated_sample =
  {|workflow "annotated" {
  task "a";
  task "b";
  task "x";
  task "c";
  task "d";

  "a" -> "x";
  "b" -> "x";
  "x" -> "c";
  "x" -> "d";

  deps "x" {
    "c" <- "a" "b";
    "d" <-;
  }
}
|}

let test_deps_parse_and_roundtrip () =
  let spec, view = ok (Wfdsl.of_string annotated_sample) in
  check_bool "has annotations" true (Spec.has_annotations spec);
  let x = Spec.task_of_name_exn spec "x" in
  (match Spec.annotation spec x with
   | Some entries ->
     let named =
       List.sort compare
         (List.map
            (fun (o, ins) ->
              (Spec.task_name spec o, List.map (Spec.task_name spec) ins))
            entries)
     in
     Alcotest.(check (list (pair string (list string))))
       "entries" [ ("c", [ "a"; "b" ]); ("d", []) ] named
   | None -> Alcotest.fail "x carries no annotation");
  check_bool "unannotated task" true
    (Spec.annotation spec (Spec.task_of_name_exn spec "a") = None);
  (* printer renders the deps block and it parses back identically *)
  let printed = Wfdsl.to_string view in
  check_bool "printed deps block" true
    (let affix = "deps \"x\"" in
     let n = String.length printed and m = String.length affix in
     let rec go i = i + m <= n && (String.sub printed i m = affix || go (i + 1)) in
     go 0);
  let spec', _ = ok (Wfdsl.of_string printed) in
  check_bool "round trip keeps annotations" true (Spec.has_annotations spec');
  let x' = Spec.task_of_name_exn spec' "x" in
  Alcotest.(check (list (pair string (list string))))
    "round-tripped entries"
    [ ("c", [ "a"; "b" ]); ("d", []) ]
    (List.sort compare
       (List.map
          (fun (o, ins) ->
            (Spec.task_name spec' o, List.map (Spec.task_name spec') ins))
          (Option.get (Spec.annotation spec' x'))))

let test_deps_source_map () =
  let _, _, sm = ok (Wfdsl.of_string_with_source annotated_sample) in
  (match List.assoc_opt "x" sm.Wfdsl.deps_decls with
   | Some p ->
     check_int "deps decl line" 13 p.Wfdsl.pos_line;
     check_int "deps decl column" 8 p.Wfdsl.pos_column
   | None -> Alcotest.fail "deps decl not in source map");
  match List.assoc_opt ("x", "c") sm.Wfdsl.deps_entries with
  | Some p -> check_int "entry line" 14 p.Wfdsl.pos_line
  | None -> Alcotest.fail "deps entry not in source map"

let test_deps_errors () =
  let cases =
    [ (* deps on an undeclared task *)
      ( {|workflow "w" { task "a"; task "b"; "a" -> "b"; deps "z" { "b" <- "a"; } }|},
        "unknown task \"z\"" );
      (* entry referencing an undeclared task *)
      ( {|workflow "w" { task "a"; task "b"; "a" -> "b"; deps "a" { "b" <- "q"; } }|},
        "unknown task \"q\"" );
      (* malformed: missing the arrow *)
      ( {|workflow "w" { task "a"; task "b"; "a" -> "b"; deps "a" { "b" "a"; } }|},
        "expected '<-'" ) ]
  in
  List.iter
    (fun (src, fragment) ->
      match Wfdsl.of_string src with
      | Ok _ -> Alcotest.failf "expected %S to fail (%s)" src fragment
      | Error e ->
        let msg = Format.asprintf "%a" Wfdsl.pp_error e in
        let contains =
          let ln = String.length fragment and lh = String.length msg in
          let rec go i =
            i + ln <= lh && (String.sub msg i ln = fragment || go (i + 1))
          in
          go 0
        in
        check_bool (Printf.sprintf "%s in %s" fragment msg) true contains)
    cases

(* The satellite property: rendering any generated view to .wf text and
   parsing it back preserves the specification (tasks, edges, attributes'
   carrier) and the exact partition, across every generator family and
   view policy. *)
let prop_dsl_roundtrip =
  QCheck2.Test.make
    ~name:"of_string (to_string view) preserves spec and partition"
    ~count:120
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 2 50) (int_range 1 8))
    (fun (seed, size, k) ->
      let family =
        List.nth Gen.all_families (seed mod List.length Gen.all_families)
      in
      let spec = Gen.generate family ~seed ~size in
      let policy =
        match seed mod 4 with
        | 0 -> Views.Topological_bands k
        | 1 -> Views.Connected_groups k
        | 2 -> Views.Random_partition k
        | _ -> Views.Sound_groups k
      in
      let view = Views.build ~seed policy spec in
      let edge_names s =
        List.sort compare
          (Wolves_graph.Digraph.fold_edges
             (fun u v acc -> (Spec.task_name s u, Spec.task_name s v) :: acc)
             (Spec.graph s) [])
      in
      let task_names s =
        List.sort compare (List.map (Spec.task_name s) (Spec.tasks s))
      in
      let partition v =
        List.sort compare
          (List.map
             (fun c ->
               ( View.composite_name v c,
                 List.sort compare
                   (List.map (Spec.task_name (View.spec v)) (View.members v c))
               ))
             (View.composites v))
      in
      match Wfdsl.of_string (Wfdsl.to_string view) with
      | Error _ -> false
      | Ok (spec', view') ->
        Spec.name spec = Spec.name spec'
        && task_names spec = task_names spec'
        && edge_names spec = edge_names spec'
        && partition view = partition view')

(* Cross-format: DSL and MoML agree on generated views. *)
let prop_cross_format =
  QCheck2.Test.make ~name:"DSL and MoML round-trip to the same view" ~count:80
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 4 40) (int_range 1 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Connected_groups k) spec in
      match
        (Wfdsl.of_string (Wfdsl.to_string view), Moml.of_string (Moml.to_string view))
      with
      | Ok (s1, v1), Ok (s2, v2) ->
        Spec.n_tasks s1 = Spec.n_tasks s2
        && Spec.n_dependencies s1 = Spec.n_dependencies s2
        && View.n_composites v1 = View.n_composites v2
        && List.for_all
             (fun c ->
               let name = View.composite_name v1 c in
               match View.composite_of_name v2 name with
               | None -> false
               | Some c' ->
                 List.map (Spec.task_name s1) (View.members v1 c)
                 = List.map (Spec.task_name s2) (View.members v2 c'))
             (View.composites v1)
      | _ -> false)

let prop_dsl_fuzz =
  QCheck2.Test.make ~name:"DSL parser total on random bytes" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 120))
    (fun input ->
      match Wfdsl.of_string input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* Random attributed specifications: a forward-edge DAG and a sequence of
   [set_attr] writes, overwrites included, some values needing escapes. *)
let gen_attributed =
  QCheck2.Gen.(
    let* n = int_range 1 30 in
    let* edges = list_size (int_range 0 (2 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
    let+ writes =
      list_size (int_range 0 (3 * n))
        (triple (int_bound (n - 1))
           (oneofl [ "duration"; "mem"; "class"; "a b" ])
           (oneofl [ "1"; "2.5"; "4G"; "x&y"; "<q>"; "\"z\""; "" ]))
    in
    let name i = Printf.sprintf "t%d" i in
    let b = Spec.Builder.create ~name:"attributed" () in
    for i = 0 to n - 1 do
      ignore (Spec.Builder.add_task_exn b (name i))
    done;
    List.iter
      (fun (u, v) -> if u < v then Spec.Builder.add_dependency_exn b (name u) (name v))
      edges;
    List.iter (fun (t, key, value) -> Spec.Builder.set_attr_exn b (name t) ~key value) writes;
    (Spec.Builder.finish_exn b, writes))

(* [Spec.attrs] against its definition: fold every (task, key) write, the
   last one winning, and sort the task's pairs. *)
let prop_attrs_definition =
  QCheck2.Test.make ~name:"attrs = fold over the attribute table" ~count:200
    gen_attributed (fun (spec, writes) ->
      let table = Hashtbl.create 16 in
      List.iter (fun (t, key, value) -> Hashtbl.replace table (t, key) value) writes;
      List.for_all
        (fun t ->
          Spec.attrs spec t
          = List.sort compare
              (Hashtbl.fold
                 (fun (task, key) value acc -> if task = t then (key, value) :: acc else acc)
                 table []))
        (Spec.tasks spec))

let prop_attrs_roundtrip =
  QCheck2.Test.make ~name:"MoML and .wf round-trip attributes" ~count:200
    gen_attributed (fun (spec, _) ->
      let view = View.singleton_view spec in
      let same (spec', _) =
        List.for_all
          (fun t ->
            Spec.attrs spec t
            = Spec.attrs spec' (Spec.task_of_name_exn spec' (Spec.task_name spec t)))
          (Spec.tasks spec)
      in
      (match Moml.of_string (Moml.to_string view) with Ok r -> same r | Error _ -> false)
      && (match Wfdsl.of_string (Wfdsl.to_string view) with Ok r -> same r | Error _ -> false))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_lang"
    [ ( "wfdsl",
        [ Alcotest.test_case "sample document" `Quick test_parse_sample;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "task attributes end to end" `Quick test_attributes;
          Alcotest.test_case "figure 1 round trip" `Quick test_roundtrip_figure1;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "load errors carry the file" `Quick
            test_load_error_positions;
          Alcotest.test_case "source map" `Quick test_source_map;
          Alcotest.test_case "deps blocks parse and round trip" `Quick
            test_deps_parse_and_roundtrip;
          Alcotest.test_case "deps source map" `Quick test_deps_source_map;
          Alcotest.test_case "deps errors" `Quick test_deps_errors;
          qt prop_dsl_roundtrip;
          qt prop_cross_format;
          qt prop_dsl_fuzz;
          qt prop_attrs_definition;
          qt prop_attrs_roundtrip ] ) ]
