(* Tests for the provenance query language: lexing/parsing errors,
   evaluation over Figure 1, algebraic laws. *)

open Wolves_workflow
module Q = Wolves_query.Query
module Bitset = Wolves_graph.Bitset

let view () = snd (Examples.figure1 ())

let ok v q =
  match Q.eval_names v q with
  | Ok names -> names
  | Error e -> Alcotest.failf "query %S failed: %a" q Q.pp_error e

let err v q =
  match Q.eval v q with
  | Ok _ -> Alcotest.failf "expected %S to fail" q
  | Error e -> Format.asprintf "%a" Q.pp_error e

let check_names = Alcotest.(check (list string))
let check_bool = Alcotest.(check bool)

let test_literals () =
  let v = view () in
  check_names "task literal" [ "1:Select Entries" ] (ok v "'1:Select Entries'");
  check_names "composite literal expands" [ "2:Split Entries"; "3:Extract Annotations" ]
    (ok v "'14:Split & Annotate'");
  check_bool "unknown literal" true
    (let msg = err v "'nope'" in
     String.length msg > 0)

let test_keywords () =
  let v = view () in
  Alcotest.(check int) "all" 12 (List.length (ok v "all"));
  check_names "none" [] (ok v "none");
  check_names "sources" [ "1:Select Entries"; "9:Consider Other Annotations" ]
    (ok v "sources");
  check_names "sinks" [ "12:Display Tree" ] (ok v "sinks");
  check_names "unsound = members of composite 16"
    [ "4:Curate Annotations"; "7:Create Alignment" ]
    (ok v "unsound")

let test_functions () =
  let v = view () in
  check_names "the paper's provenance query"
    [ "1:Select Entries"; "2:Split Entries"; "6:Extract Sequences";
      "7:Create Alignment"; "8:Format Alignment" ]
    (ok v "ancestors('8:Format Alignment')");
  check_names "producers (one step)" [ "5:Format Annotations";
                                       "8:Format Alignment";
                                       "10:Process Other Annotations" ]
    (ok v "producers('11:Build Phylo Tree')");
  check_names "consumers of split" [ "3:Extract Annotations"; "6:Extract Sequences" ]
    (ok v "consumers('2:Split Entries')");
  (* The over-report of view-level provenance, as a query: *)
  check_names "view-level over-report"
    [ "3:Extract Annotations"; "4:Curate Annotations" ]
    (ok v
       "composites(ancestors('8:Format Alignment')) - ancestors('8:Format \
        Alignment')")

let test_operators_and_precedence () =
  let v = view () in
  (* & binds tighter than | and -. *)
  check_names "a | b & c parses as a | (b & c)"
    [ "1:Select Entries" ]
    (ok v "'1:Select Entries' | '2:Split Entries' & '3:Extract Annotations'");
  check_names "parentheses override" []
    (ok v "('1:Select Entries' | '2:Split Entries') & '3:Extract Annotations'");
  check_names "difference chains left"
    [ "12:Display Tree" ]
    (ok v "sinks - sources - none")

let test_complement () =
  let v = view () in
  Alcotest.(check int) "!none = all" 12 (List.length (ok v "!none"));
  check_names "!all = none" [] (ok v "!all");
  (* Non-ancestors of the alignment: the annotation branch + downstream. *)
  Alcotest.(check int) "complement of ancestors" 7
    (List.length (ok v "!ancestors('8:Format Alignment')"));
  check_names "double complement" (ok v "sources") (ok v "!!sources");
  (* binds tighter than & *)
  check_names "precedence" (ok v "sinks") (ok v "!sources & sinks")

let test_parse_errors () =
  let v = view () in
  List.iter
    (fun (q, fragment) ->
      let msg = err v q in
      let contains =
        let ln = String.length fragment and lh = String.length msg in
        let rec go i = i + ln <= lh && (String.sub msg i ln = fragment || go (i + 1)) in
        go 0
      in
      check_bool (Printf.sprintf "%S -> %s (got %s)" q fragment msg) true contains)
    [ ("", "expected an expression");
      ("ancestors", "needs an argument");
      ("ancestors('1:Select Entries'", "expected ')'");
      ("'unterminated", "unterminated literal");
      ("all all", "trailing input");
      ("bogus", "unknown identifier");
      ("all @ none", "unexpected character");
      ("& all", "expected an expression") ]

let test_error_positions () =
  let v = view () in
  match Q.eval v "all | bogus" with
  | Error e -> Alcotest.(check int) "position points at bogus" 6 e.Q.position
  | Ok _ -> Alcotest.fail "expected failure"

(* Algebraic laws on randomly generated expressions over a fixed view. *)
let gen_ast_string =
  let open QCheck2.Gen in
  let atom =
    oneofl
      [ "'1:Select Entries'"; "'14:Split & Annotate'"; "sources"; "sinks";
        "unsound"; "all"; "none"; "ancestors('8:Format Alignment')" ]
  in
  let rec expr depth =
    if depth = 0 then atom
    else
      oneof
        [ atom;
          map2 (Printf.sprintf "(%s | %s)") (expr (depth - 1)) (expr (depth - 1));
          map2 (Printf.sprintf "(%s & %s)") (expr (depth - 1)) (expr (depth - 1));
          map2 (Printf.sprintf "(%s - %s)") (expr (depth - 1)) (expr (depth - 1));
          map (Printf.sprintf "descendants(%s)") (expr (depth - 1));
          map (Printf.sprintf "composites(%s)") (expr (depth - 1)) ]
  in
  expr 3

let prop_algebra =
  QCheck2.Test.make ~name:"set algebra laws hold for generated queries"
    ~count:200
    QCheck2.Gen.(pair gen_ast_string gen_ast_string)
    (fun (qa, qb) ->
      let v = view () in
      match (Q.eval v qa, Q.eval v qb) with
      | Ok a, Ok b ->
        let union1 = Q.eval v (Printf.sprintf "(%s) | (%s)" qa qb) in
        let union2 = Q.eval v (Printf.sprintf "(%s) | (%s)" qb qa) in
        let idem = Q.eval v (Printf.sprintf "(%s) & (%s)" qa qa) in
        (match (union1, union2, idem) with
         | Ok u1, Ok u2, Ok i ->
           Bitset.equal u1 u2
           && Bitset.equal i a
           && Bitset.subset (Bitset.inter a b) u1
         | _ -> false)
      | _ -> false)

let prop_monotone_closure =
  QCheck2.Test.make ~name:"ancestors/descendants are extensive and idempotent"
    ~count:100 gen_ast_string
    (fun q ->
      let v = view () in
      match
        ( Q.eval v q,
          Q.eval v (Printf.sprintf "ancestors(%s)" q),
          Q.eval v (Printf.sprintf "ancestors(ancestors(%s))" q) )
      with
      | Ok base, Ok anc, Ok anc2 ->
        Bitset.subset base anc && Bitset.equal anc anc2
      | _ -> false)

(* [composites(e)] against its per-task definition on random views:
   {t' | some t in e shares t''s composite}. The argument is a random task
   subset, optionally under one of the other functions. *)
let prop_composites_naive =
  QCheck2.Test.make ~name:"composites agrees with the per-task definition"
    ~count:150
    QCheck2.Gen.(
      quad (int_range 0 10_000) (int_range 4 40) (int_range 1 8)
        (pair
           (oneofl [ ""; "ancestors"; "descendants"; "producers"; "consumers" ])
           (list_size (int_range 0 6) (int_bound 1_000))))
    (fun (seed, size, k, (fn, picks)) ->
      let module Gen = Wolves_workload.Generate in
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let v =
        Wolves_workload.Views.build ~seed
          (Wolves_workload.Views.Random_partition k) spec
      in
      let n = Spec.n_tasks spec in
      let names =
        List.map (fun i -> Printf.sprintf "'%s'" (Spec.task_name spec (i mod n))) picks
      in
      let arg =
        Printf.sprintf "%s(%s)" fn
          (if names = [] then "none" else String.concat " | " names)
      in
      match (Q.eval v arg, Q.eval v (Printf.sprintf "composites(%s)" arg)) with
      | Ok inner, Ok got ->
        let expected =
          List.filter
            (fun t' ->
              Bitset.exists
                (fun t ->
                  View.composite_of_task v t = View.composite_of_task v t')
                inner)
            (Spec.tasks spec)
        in
        Bitset.elements got = expected
      | _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_query"
    [ ( "query",
        [ Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "operators and precedence" `Quick
            test_operators_and_precedence;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          qt prop_algebra;
          qt prop_monotone_closure;
          qt prop_composites_naive ] ) ]
