(* Wolves_trace: ring-buffer semantics, span reconstruction, the three
   exporters (Chrome trace-event JSON, JSONL, collapsed stacks), the profile
   aggregator, and the no-observable-effect guarantee when tracing is off. *)

module M = Wolves_obs.Metrics
module T = Wolves_trace.Trace
module Export = Wolves_trace.Export
module Profile = Wolves_trace.Profile
module Json = Wolves_cli.Json
module C = Wolves_core.Corrector
module Moml = Wolves_moml.Moml
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A deterministic unsound view: correcting it crosses every instrumented
   layer (corrector span -> per-composite spans -> validate/split timers). *)
let unsound_view () =
  let spec = Gen.generate Gen.Layered ~seed:3 ~size:20 in
  let view = Views.build ~seed:3 (Views.Connected_groups 4) spec in
  Views.inject_unsoundness ~seed:4 ~attempts:80 view

(* Pin the corrector to one domain: these tests assert on the event stream,
   and at more domains the collector keeps only the per-composite spans its
   own domain ran, not the pool workers'. *)
let traced_correction () =
  let view = unsound_view () in
  let c = T.create () in
  ignore (T.with_tracing c (fun () -> C.correct ~domains:1 C.Strong view));
  T.events c

(* ------------------------------------------------------------------ *)
(* ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow () =
  M.reset ();
  let c = T.create ~capacity:4 () in
  check_int "capacity as requested" 4 (T.capacity c);
  M.enabled (fun () ->
      for i = 0 to 6 do
        T.record c T.Instant (Printf.sprintf "e%d" i) []
      done);
  check_int "length capped at capacity" 4 (T.length c);
  check_int "three events evicted" 3 (T.dropped c);
  check_bool "oldest dropped, newest retained, oldest-first order" true
    (List.map (fun (e : T.event) -> e.T.name) (T.events c)
     = [ "e3"; "e4"; "e5"; "e6" ]);
  check_int "registry counted the drops" 3
    (M.counter_value (M.counter "trace.dropped"));
  check_int "registry counted every record" 7
    (M.counter_value (M.counter "trace.events"));
  T.clear c;
  check_int "clear empties" 0 (T.length c);
  check_int "clear resets the drop count" 0 (T.dropped c);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.create: capacity must be >= 1")
    (fun () -> ignore (T.create ~capacity:0 ()))

(* The collector keeps only the events of the domain that installed it: a
   region another domain crosses meanwhile leaves no trace. *)
let test_tracer_keeps_own_domain () =
  let c = T.create () in
  T.with_tracing c (fun () ->
      M.with_span "mine" (fun () ->
          Domain.join (Domain.spawn (fun () -> M.with_span "theirs" ignore))));
  check_bool "only the installing domain's span" true
    (List.map (fun (e : T.event) -> (e.T.phase, e.T.name)) (T.events c)
     = [ (T.Begin, "mine"); (T.End, "mine") ])

(* ------------------------------------------------------------------ *)
(* span reconstruction                                                 *)
(* ------------------------------------------------------------------ *)

let ev phase name ts = { T.phase; name; ts; args = [] }

let test_spans_nested () =
  let spans, orphans =
    T.spans
      [ ev T.Begin "a" 0.0; ev T.Begin "b" 1.0; ev T.End "b" 2.0;
        ev T.Instant "i" 2.5; ev T.End "a" 3.0 ]
  in
  check_int "no orphans" 0 orphans;
  check_int "two spans" 2 (List.length spans);
  let b = List.find (fun (s : T.span) -> s.T.stack = [ "a"; "b" ]) spans in
  let a = List.find (fun (s : T.span) -> s.T.stack = [ "a" ]) spans in
  check (Alcotest.float 1e-9) "inner self = own duration" 1.0 b.T.self_s;
  check (Alcotest.float 1e-9) "outer self excludes the child" 2.0 a.T.self_s

let test_spans_orphan_and_unclosed () =
  (* An End whose Begin fell off the ring, then a span left open. *)
  let spans, orphans =
    T.spans [ ev T.End "lost" 0.0; ev T.Begin "a" 1.0; ev T.Begin "b" 2.0 ]
  in
  check_int "orphaned End counted and skipped" 1 orphans;
  check_int "open spans closed at the last timestamp" 2 (List.length spans);
  let a = List.find (fun (s : T.span) -> s.T.stack = [ "a" ]) spans in
  check (Alcotest.float 1e-9) "synthesized end uses the last ts" 2.0
    a.T.end_ts

(* At 4 domains the pool's workers cross instrumented regions too; the
   collector keeps only its own domain's events, so the stream still nests:
   no orphaned End, no span left open, every span under the root. *)
let test_spans_parallel_correction () =
  let view = unsound_view () in
  check_bool "the corrector farms: several unsound composites" true
    (List.length (Wolves_core.Soundness.validate view).unsound >= 2);
  let c = T.create () in
  ignore (T.with_tracing c (fun () -> C.correct ~domains:4 C.Strong view));
  let evs = T.events c in
  let spans, orphans = T.spans evs in
  let count phase =
    List.length (List.filter (fun (e : T.event) -> e.T.phase = phase) evs)
  in
  check_int "no orphaned End" 0 orphans;
  check_int "no unclosed span" (count T.Begin) (count T.End);
  check_int "one span per Begin" (count T.Begin) (List.length spans);
  check_bool "every span nests under corrector.correct" true
    (List.for_all
       (fun (sp : T.span) -> List.hd sp.T.stack = "corrector.correct")
       spans)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let chrome_events evs =
  match Json.member "traceEvents" (Export.to_chrome_json evs) with
  | Some (Json.List items) -> items
  | _ -> Alcotest.fail "export lacks a traceEvents array"

let str_field key j =
  match Json.member key j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "event field %S missing or not a string" key

let num_field key j =
  match Option.bind (Json.member key j) Json.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "event field %S missing or not numeric" key

let test_chrome_structure () =
  let items = chrome_events (traced_correction ()) in
  check_bool "trace is non-empty" true (items <> []);
  (* Every event structurally valid: ph/name/ts/pid/tid, dur on E. *)
  let last_ts = ref neg_infinity in
  let depth = ref 0 in
  let max_depth = ref 0 in
  let balance = ref 0 in
  List.iter
    (fun j ->
      let ph = str_field "ph" j in
      ignore (str_field "name" j);
      ignore (str_field "cat" j);
      let ts = num_field "ts" j in
      check_bool "timestamps monotone non-decreasing" true (ts >= !last_ts);
      check_bool "timestamps non-negative" true (ts >= 0.0);
      last_ts := ts;
      check (Alcotest.float 0.0) "pid constant" 1.0 (num_field "pid" j);
      check (Alcotest.float 0.0) "tid constant" 1.0 (num_field "tid" j);
      match ph with
      | "B" ->
        incr depth;
        incr balance;
        if !depth > !max_depth then max_depth := !depth
      | "E" ->
        check_bool "dur on end events is non-negative" true
          (num_field "dur" j >= 0.0);
        check_bool "no End before its Begin" true (!depth > 0);
        decr depth;
        decr balance
      | "i" -> ()
      | other -> Alcotest.failf "unexpected phase %S" other)
    items;
  check_int "begin/end pairs balance" 0 !balance;
  check_bool "corrector nesting reaches depth >= 2" true (!max_depth >= 2)

let test_chrome_balances_truncated_stream () =
  (* A tiny ring that drops the oldest events: the export must still emit a
     balanced document (orphaned Ends skipped, open Begins closed). *)
  let view = unsound_view () in
  let c = T.create ~capacity:8 () in
  ignore (T.with_tracing c (fun () -> C.correct ~domains:1 C.Strong view));
  check_bool "the ring did overflow" true (T.dropped c > 0);
  let balance = ref 0 in
  List.iter
    (fun j ->
      match str_field "ph" j with
      | "B" -> incr balance
      | "E" ->
        decr balance;
        check_bool "never more Ends than Begins" true (!balance >= 0)
      | _ -> ())
    (chrome_events (T.events c));
  check_int "document balances after truncation" 0 !balance

(* ------------------------------------------------------------------ *)
(* JSONL and collapsed-stack exports                                   *)
(* ------------------------------------------------------------------ *)

let test_jsonl () =
  let evs = traced_correction () in
  let lines =
    String.split_on_char '\n' (Export.to_jsonl evs)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length evs) (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error msg -> Alcotest.failf "JSONL line does not parse: %s" msg
      | Ok j ->
        check_bool "ph is B/E/i" true
          (List.mem (str_field "ph" j) [ "B"; "E"; "i" ]);
        ignore (str_field "name" j);
        check_bool "ts_us numeric and non-negative" true
          (num_field "ts_us" j >= 0.0))
    lines

let test_folded () =
  let folded = Export.to_folded (traced_correction ()) in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  check_bool "has at least one stack" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line lacks a count: %S" line
      | Some i ->
        let count = String.sub line (i + 1) (String.length line - i - 1) in
        (match int_of_string_opt count with
         | Some n -> check_bool "self-time count non-negative" true (n >= 0)
         | None -> Alcotest.failf "folded count not an integer: %S" line))
    lines;
  check_bool "root frame present" true
    (List.exists
       (fun l ->
         String.length l >= 17 && String.sub l 0 17 = "corrector.correct")
       lines);
  check_bool "nested frame present" true
    (List.exists (fun l -> String.contains l ';') lines)

(* ------------------------------------------------------------------ *)
(* no observable effect while tracing is off                           *)
(* ------------------------------------------------------------------ *)

let test_tracing_off_identical () =
  let correct_to_string () =
    let corrected, _ = C.correct C.Strong (unsound_view ()) in
    Moml.to_string corrected
  in
  let untraced = correct_to_string () in
  let traced =
    let c = T.create () in
    T.with_tracing c correct_to_string
  in
  let untraced_again = correct_to_string () in
  check_bool "corrected view identical with a tracer installed" true
    (String.equal untraced traced);
  check_bool "and identical after the tracer is gone" true
    (String.equal untraced untraced_again)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_invariants () =
  let evs = traced_correction () in
  let p = Profile.of_events evs in
  check_int "event count matches" (List.length evs) p.Profile.events;
  check_int "no orphans in an untruncated trace" 0 p.Profile.orphans;
  List.iter
    (fun (r : Profile.row) ->
      check_bool "self <= total" true (r.Profile.self_s <= r.Profile.total_s +. 1e-12);
      check_bool "max <= total" true (r.Profile.max_s <= r.Profile.total_s +. 1e-12);
      check_bool "count positive" true (r.Profile.count > 0))
    p.Profile.rows;
  List.iter
    (fun (r : Profile.row) ->
      check_bool "phase rows are top-level paths" true
        (not (String.contains r.Profile.path '/')))
    (Profile.phases p);
  check_bool "top_self bounded by k" true
    (List.length (Profile.top_self ~k:2 p) <= 2);
  (match Profile.top_self ~k:100 p with
   | a :: b :: _ ->
     check_bool "top_self sorted descending" true
       (a.Profile.self_s >= b.Profile.self_s)
   | _ -> ());
  check_bool "correct span profiled at the root" true
    (List.exists
       (fun (r : Profile.row) -> r.Profile.path = "corrector.correct")
       (Profile.phases p))

let row_signature p =
  List.map
    (fun (r : Profile.row) -> (r.Profile.path, r.Profile.count))
    p.Profile.rows

let test_profile_load_round_trip () =
  let evs = traced_correction () in
  let direct = Profile.of_events evs in
  let round_trip write path =
    write path;
    match Profile.load path with
    | Error msg -> Alcotest.failf "%s failed to load: %s" path msg
    | Ok loaded ->
      check_bool
        (Printf.sprintf "%s reproduces the span profile" path)
        true
        (row_signature (Profile.of_events loaded) = row_signature direct)
  in
  let tmp suffix = Filename.temp_file "wolves_trace" suffix in
  let chrome = tmp ".json" and jsonl = tmp ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ chrome; jsonl ])
    (fun () ->
      round_trip (Export.write Export.Chrome evs) chrome;
      round_trip (Export.write Export.Jsonl evs) jsonl)

(* ------------------------------------------------------------------ *)
(* the Json parser the loaders depend on                               *)
(* ------------------------------------------------------------------ *)

let test_json_parser () =
  let ok text = match Json.of_string text with
    | Ok v -> v
    | Error msg -> Alcotest.failf "%S should parse: %s" text msg
  in
  check_bool "object with every value kind" true
    (ok {|{"a": 1, "b": -2.5e1, "c": "x\nA", "d": [true, false, null]}|}
     = Json.Obj
         [ ("a", Json.Int 1); ("b", Json.Float (-25.0));
           ("c", Json.String "x\nA");
           ("d", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]) ]);
  check_bool "surrogate pair decodes to UTF-8" true
    (ok {|"😀"|} = Json.String "\xf0\x9f\x98\x80");
  check_bool "trailing input rejected" true
    (Result.is_error (Json.of_string "{} x"));
  check_bool "truncated object rejected" true
    (Result.is_error (Json.of_string {|{"a": 1|}));
  (* Emission -> parsing round-trip, pretty and compact. *)
  let doc =
    Json.Obj
      [ ("nested", Json.Obj [ ("list", Json.List [ Json.Int 1; Json.Float 0.5 ]) ]);
        ("escape", Json.String "tab\there \"quoted\"") ]
  in
  check_bool "pretty round-trips" true (ok (Json.to_string doc) = doc);
  check_bool "compact round-trips" true
    (ok (Json.to_string ~pretty:false doc) = doc)

let () =
  Alcotest.run "trace"
    [ ( "ring",
        [ Alcotest.test_case "overflow drops oldest" `Quick test_ring_overflow;
          Alcotest.test_case "tracer keeps its own domain" `Quick
            test_tracer_keeps_own_domain ] );
      ( "spans",
        [ Alcotest.test_case "nested reconstruction" `Quick test_spans_nested;
          Alcotest.test_case "orphans and unclosed" `Quick
            test_spans_orphan_and_unclosed;
          Alcotest.test_case "parallel correction nests" `Quick
            test_spans_parallel_correction ] );
      ( "export",
        [ Alcotest.test_case "chrome structure" `Quick test_chrome_structure;
          Alcotest.test_case "chrome balances after truncation" `Quick
            test_chrome_balances_truncated_stream;
          Alcotest.test_case "jsonl" `Quick test_jsonl;
          Alcotest.test_case "folded stacks" `Quick test_folded ] );
      ( "isolation",
        [ Alcotest.test_case "tracing off is effect-free" `Quick
            test_tracing_off_identical ] );
      ( "profile",
        [ Alcotest.test_case "aggregation invariants" `Quick
            test_profile_invariants;
          Alcotest.test_case "load round-trip" `Quick
            test_profile_load_round_trip ] );
      ( "json",
        [ Alcotest.test_case "parser" `Quick test_json_parser ] ) ]
