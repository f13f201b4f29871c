(* The Wolves_obs observability stack: the metrics registry (enable-flag
   gating, counter/gauge/timer semantics, span nesting, reset, a round-trip
   through the JSON dump), the monotonic clock's clamping, the
   structured JSONL logger, and the Prometheus exposition
   renderer/validator. *)

module M = Wolves_obs.Metrics
module L = Wolves_obs.Log
module P = Wolves_obs.Prom
module Clk = Wolves_obs.Clock

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* A tiny JSON reader, just enough to round-trip the registry dump.    *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else raise (Bad_json (Printf.sprintf "expected %c at offset %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      if !pos >= n then raise (Bad_json "unterminated string");
      (match s.[!pos] with
       | '"' -> closed := true
       | '\\' ->
         incr pos;
         if !pos >= n then raise (Bad_json "truncated escape");
         (match s.[!pos] with
          | 'n' -> Buffer.add_char buf '\n'
          | c -> Buffer.add_char buf c)
       | c -> Buffer.add_char buf c);
      incr pos
    done;
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let more = ref true in
        while !more do
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some '}' ->
            incr pos;
            more := false
          | _ -> raise (Bad_json "bad object")
        done;
        Obj (List.rev !fields)
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let items = ref [] in
        let more = ref true in
        while !more do
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some ']' ->
            incr pos;
            more := false
          | _ -> raise (Bad_json "bad array")
        done;
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 'n' ->
      pos := !pos + 4;
      Null
    | Some 't' ->
      pos := !pos + 4;
      Bool true
    | Some 'f' ->
      pos := !pos + 5;
      Bool false
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      if !pos = start then raise (Bad_json "bad value");
      Num (float_of_string (String.sub s start (!pos - start)))
    | None -> raise (Bad_json "unexpected end of input")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad_json "trailing garbage");
  v

let member key = function
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some v -> v
     | None -> Alcotest.failf "JSON member %S missing" key)
  | _ -> Alcotest.failf "JSON member %S looked up in a non-object" key

let as_num = function
  | Num f -> f
  | _ -> Alcotest.fail "expected a JSON number"

(* ------------------------------------------------------------------ *)
(* counters, gauges                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_gating () =
  M.reset ();
  M.set_enabled false;
  let c = M.counter "test.gating" in
  M.incr c;
  M.add c 10;
  check_int "disabled recording is a no-op" 0 (M.counter_value c);
  M.enabled (fun () ->
      M.incr c;
      M.add c 4);
  check_int "enabled recording counts" 5 (M.counter_value c);
  check_bool "enabled restores the flag" false (M.is_enabled ())

let test_registration_idempotent () =
  M.reset ();
  let a = M.counter "test.same" in
  let b = M.counter "test.same" in
  M.enabled (fun () -> M.incr a);
  check_int "same name, same counter" 1 (M.counter_value b);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test.same\" is already registered as a counter")
    (fun () -> ignore (M.timer "test.same"))

let test_gauge () =
  M.reset ();
  let g = M.gauge "test.gauge" in
  check_bool "unset gauge reads None" true (M.gauge_value g = None);
  M.set g 1.5;
  check_bool "disabled set ignored" true (M.gauge_value g = None);
  M.enabled (fun () -> M.set g 2.5);
  check_bool "set gauge reads back" true (M.gauge_value g = Some 2.5)

(* ------------------------------------------------------------------ *)
(* timers                                                              *)
(* ------------------------------------------------------------------ *)

let test_timer_observe () =
  M.reset ();
  let t = M.timer "test.timer" in
  M.enabled (fun () ->
      M.observe t 1e-8;
      M.observe t 0.5;
      M.observe t (-1.0) (* clamped to 0 *));
  let st = M.timer_stats t in
  check_int "count" 3 st.M.count;
  check (Alcotest.float 1e-9) "sum" (0.5 +. 1e-8) st.M.sum;
  check (Alcotest.float 1e-9) "max" 0.5 st.M.max;
  check_int "buckets account for every observation" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 st.M.buckets);
  (* Each observation in a bucket whose bound covers it. *)
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "some bucket bound covers %g" d)
        true
        (List.exists (fun (bound, n) -> n > 0 && d <= bound) st.M.buckets))
    [ 0.0; 1e-8; 0.5 ]

let test_timer_time () =
  M.reset ();
  let t = M.timer "test.time" in
  let r = M.enabled (fun () -> M.time t (fun () -> 41 + 1)) in
  check_int "time returns the thunk's value" 42 r;
  check_int "one observation" 1 (M.timer_stats t).M.count;
  (try
     M.enabled (fun () -> M.time t (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "observed also on exception" 2 (M.timer_stats t).M.count

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  M.reset ();
  M.enabled (fun () ->
      M.with_span "outer" (fun () ->
          check_bool "outer open" true (M.span_stack () = [ "outer" ]);
          M.with_span "inner" (fun () ->
              check_bool "inner nested" true
                (M.span_stack () = [ "inner"; "outer" ]));
          check_bool "inner closed" true (M.span_stack () = [ "outer" ])));
  check_bool "all spans closed" true (M.span_stack () = []);
  check_int "outer timer recorded" 1
    (M.timer_stats (M.timer "span:outer")).M.count;
  check_int "nested timer keyed by path" 1
    (M.timer_stats (M.timer "span:outer/inner")).M.count

let test_span_unwinds_on_exception () =
  M.reset ();
  (try
     M.enabled (fun () ->
         M.with_span "fails" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_bool "stack unwound" true (M.span_stack () = []);
  check_int "duration still recorded" 1
    (M.timer_stats (M.timer "span:fails")).M.count

(* ------------------------------------------------------------------ *)
(* tracer hook                                                         *)
(* ------------------------------------------------------------------ *)

let test_tracer_hooks () =
  M.reset ();
  M.set_enabled false;
  let log = ref [] in
  let tracer =
    { M.on_begin = (fun name args -> log := `B (name, args ()) :: !log);
      on_end = (fun name -> log := `E name :: !log);
      on_instant = (fun name args -> log := `I (name, args ()) :: !log) }
  in
  let t = M.timer "test.tracer.t" in
  M.with_tracer tracer (fun () ->
      M.time t ~args:(fun () -> [ ("k", "v") ]) (fun () -> ());
      M.with_span "outer" (fun () -> M.with_span "inner" (fun () -> ()));
      M.instant "tick" (fun () -> [ ("n", "1") ]));
  check_bool "tracer removed afterwards" false (M.has_tracer ());
  let expected =
    [ `B ("test.tracer.t", [ ("k", "v") ]); `E "test.tracer.t";
      `B ("outer", []); `B ("inner", []); `E "inner"; `E "outer";
      `I ("tick", [ ("n", "1") ]) ]
  in
  check_bool "events in order with args" true (List.rev !log = expected);
  (* Tracing is independent of metric recording: the flag stayed off, so
     the timer saw nothing even though the tracer saw everything. *)
  check_int "no histogram recorded while disabled" 0 (M.timer_stats t).M.count;
  M.time t (fun () -> ());
  M.instant "tick" (fun () -> []);
  check_bool "no events after uninstall" true (List.length !log = 7)

let test_tracer_args_lazy () =
  M.reset ();
  M.set_enabled false;
  let forced = ref 0 in
  let args () =
    incr forced;
    []
  in
  let t = M.timer "test.tracer.lazy" in
  M.time t ~args (fun () -> ());
  M.with_span "s" ~args (fun () -> ());
  M.instant "i" args;
  check_int "args never forced without a tracer" 0 !forced;
  (* The thunk reaches the tracer unforced, so a dropping tracer (the
     server's sampling gate) costs nothing for annotations either. *)
  let dropping =
    { M.on_begin = (fun _ _ -> ());
      on_end = (fun _ -> ());
      on_instant = (fun _ _ -> ()) }
  in
  M.with_tracer dropping (fun () ->
      M.time t ~args (fun () -> ());
      M.instant "i" args);
  check_int "args never forced by a dropping tracer" 0 !forced

(* ------------------------------------------------------------------ *)
(* reset, snapshot, JSON                                               *)
(* ------------------------------------------------------------------ *)

let test_reset () =
  M.reset ();
  let c = M.counter "test.reset.c" in
  let g = M.gauge "test.reset.g" in
  let t = M.timer "test.reset.t" in
  M.enabled (fun () ->
      M.incr c;
      M.set g 7.0;
      M.observe t 0.25);
  M.reset ();
  check_int "counter zeroed" 0 (M.counter_value c);
  check_bool "gauge unset" true (M.gauge_value g = None);
  check_int "timer emptied" 0 (M.timer_stats t).M.count;
  M.enabled (fun () -> M.incr c);
  check_int "registration survives reset" 1 (M.counter_value c)

(* Regression test: a reset issued while spans are open (as the bench
   driver does between sections) used to leave the stale stack entries in
   place, so later spans recorded under corrupted [outer/...] paths. *)
let test_reset_unwinds_span_stack () =
  M.reset ();
  M.enabled (fun () ->
      M.with_span "outer" (fun () ->
          M.reset ();
          check_bool "reset empties the open-span stack" true
            (M.span_stack () = []);
          M.with_span "fresh" (fun () ->
              check_bool "new spans open at the top level" true
                (M.span_stack () = [ "fresh" ]))));
  check_int "post-reset span recorded under its own path" 1
    (M.timer_stats (M.timer "span:fresh")).M.count;
  check_int "not under the pre-reset parent" 0
    (M.timer_stats (M.timer "span:outer/fresh")).M.count

let test_json_round_trip () =
  M.reset ();
  let c = M.counter "test.rt.c" in
  let g = M.gauge "test.rt.g" in
  let t = M.timer "test.rt.t" in
  M.enabled (fun () ->
      M.incr c;
      M.add c 2;
      M.set g 2.5;
      M.observe t 1e-8;
      M.observe t 1e-8;
      M.observe t 0.5);
  let doc = parse_json (M.dump_json ()) in
  (* the dump leads with the shared log-scale bucket bounds, so consumers
     of the per-timer bucket maps never have to re-derive the scale *)
  (match member "bucket_bounds_s" doc with
  | Arr bounds ->
      check_int "one bound per bucket"
        (Array.length M.bucket_bounds)
        (List.length bounds);
      List.iteri
        (fun i b ->
          match (b, M.bucket_bounds.(i)) with
          | Null, expected ->
              check_bool "only the unbounded bucket is null" true
                (expected = infinity)
          | Num got, expected ->
              (* %.12g keeps 12 significant digits, so compare relatively *)
              check_bool
                (Printf.sprintf "bound %d round-trips" i)
                true
                (Float.abs (got -. expected) <= 1e-9 *. expected)
          | _ -> Alcotest.failf "bound %d is not a number" i)
        bounds
  | _ -> Alcotest.fail "bucket_bounds_s is an array");
  check (Alcotest.float 0.0) "counter round-trips" 3.0
    (as_num (member "test.rt.c" (member "counters" doc)));
  check (Alcotest.float 0.0) "gauge round-trips" 2.5
    (as_num (member "test.rt.g" (member "gauges" doc)));
  let timer = member "test.rt.t" (member "timers" doc) in
  check (Alcotest.float 0.0) "timer count round-trips" 3.0
    (as_num (member "count" timer));
  check (Alcotest.float 1e-12) "timer sum round-trips" (0.5 +. 2e-8)
    (as_num (member "sum_s" timer));
  check (Alcotest.float 0.0) "timer max round-trips" 0.5
    (as_num (member "max_s" timer));
  let buckets =
    match member "buckets" timer with
    | Obj fields -> fields
    | _ -> Alcotest.fail "buckets is an object"
  in
  check (Alcotest.float 0.0) "bucket totals round-trip" 3.0
    (List.fold_left (fun acc (_, v) -> acc +. as_num v) 0.0 buckets);
  check_bool "only non-empty buckets emitted" true
    (List.for_all (fun (_, v) -> as_num v > 0.0) buckets)

(* ------------------------------------------------------------------ *)
(* clock clamping, percentile estimation                               *)
(* ------------------------------------------------------------------ *)

let test_clock_clamping () =
  check (Alcotest.float 0.0) "a future start clamps to zero" 0.0
    (Clk.elapsed_since (Clk.now () +. 1000.));
  check_bool "normal elapsed is non-negative" true
    (Clk.elapsed_since (Clk.now ()) >= 0.);
  let v, dt = Clk.time (fun () -> 41 + 1) in
  check_int "time returns the thunk's value" 42 v;
  check_bool "timed duration is non-negative" true (dt >= 0.)

(* The log-scale histogram guarantees percentile estimates within the
   bucket growth factor: for a true quantile x >= 4ns, x <= estimate <= 4x
   (clamped to the observed max). *)
let test_percentile_bounds () =
  M.reset ();
  let t = M.timer "test.pct" in
  check (Alcotest.float 0.0) "empty timer estimates 0" 0.0
    (P.percentile (M.timer_stats t) 0.5);
  M.enabled (fun () ->
      for _ = 1 to 50 do M.observe t 1e-3 done;
      for _ = 1 to 50 do M.observe t 1e-1 done);
  let st = M.timer_stats t in
  List.iter
    (fun (q, exact) ->
      let est = P.percentile st q in
      check_bool
        (Printf.sprintf "p%.0f estimate %g within [x, 4x] of %g" (q *. 100.)
           est exact)
        true
        (exact <= est +. 1e-12 && est <= (4. *. exact) +. 1e-12))
    [ (0.25, 1e-3); (0.5, 1e-3); (0.75, 1e-1); (0.99, 1e-1) ];
  (* the unbounded bucket and q=1 clamp to the observed maximum *)
  check (Alcotest.float 1e-12) "p100 is the max" 1e-1 (P.percentile st 1.0);
  (* all-equal observations: the clamp makes the estimate exact *)
  let u = M.timer "test.pct.uniform" in
  M.enabled (fun () -> for _ = 1 to 9 do M.observe u 2e-2 done);
  check (Alcotest.float 1e-12) "uniform sample is exact via the max clamp"
    2e-2
    (P.percentile (M.timer_stats u) 0.5)

(* ------------------------------------------------------------------ *)
(* structured logging                                                  *)
(* ------------------------------------------------------------------ *)

let test_log_disabled_is_free () =
  L.set None;
  let forced = ref 0 in
  L.event L.Info "nope" (fun () ->
      incr forced;
      []);
  check_int "field thunk never forced without a sink" 0 !forced;
  check_bool "nothing enabled" false (L.enabled L.Error)

let test_log_levels_and_format () =
  L.set None;
  let buf = Buffer.create 256 in
  L.with_sink ~level:L.Info (L.buffer_sink buf) (fun () ->
      check_bool "info enabled" true (L.enabled L.Info);
      check_bool "warn enabled" true (L.enabled L.Warn);
      check_bool "debug filtered" false (L.enabled L.Debug);
      let forced = ref 0 in
      L.event L.Debug "dropped" (fun () ->
          incr forced;
          []);
      check_int "below-threshold thunk not forced" 0 !forced;
      L.event L.Info "req" (fun () ->
          [ ("verb", L.Str "va\"l\nue");
            ("n", L.Int 42);
            ("ratio", L.Float 0.5);
            ("bad", L.Float Float.nan);
            ("ok", L.Bool true) ]));
  check_bool "sink uninstalled afterwards" true (L.current () = None);
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "exactly one record written" 1 (List.length lines);
  let record = List.hd lines in
  match parse_json record with
  | Obj fields ->
      check_bool "ts leads and is numeric" true
        (match fields with
        | ("ts", Num ts) :: _ -> ts > 0.
        | _ -> false);
      Alcotest.(check (list string))
        "field order preserved after the header"
        [ "ts"; "level"; "event"; "verb"; "n"; "ratio"; "bad"; "ok" ]
        (List.map fst fields);
      check_bool "level rendered" true
        (List.assoc_opt "level" fields = Some (Str "info"));
      check_bool "event rendered" true
        (List.assoc_opt "event" fields = Some (Str "req"));
      check_bool "string escapes round-trip" true
        (List.assoc_opt "verb" fields = Some (Str "va\"l\nue"));
      check_bool "int rendered" true
        (List.assoc_opt "n" fields = Some (Num 42.));
      check_bool "non-finite float renders null" true
        (List.assoc_opt "bad" fields = Some Null);
      check_bool "bool rendered" true
        (List.assoc_opt "ok" fields = Some (Bool true))
  | _ -> Alcotest.failf "record is not a JSON object: %s" record

let test_log_with_sink_restores () =
  L.set None;
  let outer = Buffer.create 64 and inner = Buffer.create 64 in
  L.with_sink ~level:L.Warn (L.buffer_sink outer) (fun () ->
      L.with_sink ~level:L.Debug (L.buffer_sink inner) (fun () ->
          check_bool "inner level applies" true (L.enabled L.Debug);
          L.event L.Debug "in" (fun () -> []));
      check_bool "outer level restored" false (L.enabled L.Info);
      L.event L.Warn "out" (fun () -> []));
  check_bool "fully uninstalled" true (L.current () = None);
  check_bool "inner sink got the inner record" true
    (contains (Buffer.contents inner) "\"event\":\"in\"");
  check_bool "outer sink got only the outer record" true
    (contains (Buffer.contents outer) "\"event\":\"out\""
    && not (contains (Buffer.contents outer) "\"event\":\"in\""))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: render and check                             *)
(* ------------------------------------------------------------------ *)

let test_prom_metric_name () =
  check_string "dots become underscores" "server_requests_total"
    (P.metric_name "server.requests.total");
  check_string "illegal chars become underscores" "a_b_c_d"
    (P.metric_name "a-b/c d");
  check_string "leading digit gains a prefix" "_9lives" (P.metric_name "9lives");
  check_string "legal names pass through" "already_fine:ok"
    (P.metric_name "already_fine:ok")

let test_prom_render_passes_check () =
  M.reset ();
  let c = M.counter "test.prom.c" in
  let g = M.gauge "test.prom.g" in
  let t = M.timer "test.prom.t" in
  let _empty = M.timer "test.prom.empty" in
  M.enabled (fun () ->
      M.add c 3;
      M.set g 1.5;
      M.observe t 1e-3;
      M.observe t 1e-1);
  let page = P.render (M.snapshot ()) in
  (match P.check page with
  | Ok n -> check_bool "non-trivial sample count" true (n >= 8)
  | Error e -> Alcotest.failf "render fails its own checker: %s" e);
  let lines = String.split_on_char '\n' page in
  check_bool "counter rendered as _total" true
    (List.mem "test_prom_c_total 3" lines);
  check_bool "gauge rendered verbatim" true (List.mem "test_prom_g 1.5" lines);
  check_bool "histogram terminal +Inf carries the count" true
    (List.mem "test_prom_t_seconds_bucket{le=\"+Inf\"} 2" lines);
  check_bool "histogram count matches" true
    (List.mem "test_prom_t_seconds_count 2" lines);
  check_bool "quantile gauges derived" true
    (List.exists
       (fun l -> contains l "test_prom_t_seconds_quantile{quantile=\"0.99\"}")
       lines);
  check_bool "empty timer omitted" false
    (List.exists (fun l -> contains l "test_prom_empty") lines)

(* Rendering shares no mutable state: four domains rendering the same
   snapshot at once, each from its first page on, produce the same valid
   page. *)
let test_prom_render_concurrent () =
  M.reset ();
  let t = M.timer "test.prom.concurrent" in
  M.enabled (fun () -> List.iter (M.observe t) [ 1e-6; 1e-3; 0.5; 300. ]);
  let snap = M.snapshot () in
  let go = Atomic.make false in
  let renderers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            List.init 50 (fun _ -> P.render snap)))
  in
  Atomic.set go true;
  let pages = List.concat_map Domain.join renderers in
  let reference = P.render snap in
  check_bool "every page byte-identical" true
    (List.for_all (String.equal reference) pages);
  match P.check reference with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "concurrent page fails the checker: %s" e

let test_prom_check_rejects () =
  let histogram header buckets tail =
    String.concat "\n" (("# TYPE h histogram" :: header) @ buckets @ tail)
    ^ "\n"
  in
  List.iter
    (fun (name, page) ->
      match P.check page with
      | Ok _ -> Alcotest.failf "checker accepted %s" name
      | Error _ -> ())
    [ ("sample without TYPE", "foo 1\n");
      ("unknown type", "# TYPE foo widget\nfoo 1\n");
      ("unparsable value", "# TYPE x counter\nx_total one\n");
      ( "non-contiguous family",
        "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\na_total 2\n"
      );
      ( "le not increasing",
        histogram []
          [ "h_bucket{le=\"0.5\"} 1"; "h_bucket{le=\"0.1\"} 2";
            "h_bucket{le=\"+Inf\"} 2" ]
          [ "h_sum 0.6"; "h_count 2" ] );
      ( "counts not cumulative",
        histogram []
          [ "h_bucket{le=\"0.1\"} 5"; "h_bucket{le=\"0.5\"} 3";
            "h_bucket{le=\"+Inf\"} 5" ]
          [ "h_sum 0.9"; "h_count 5" ] );
      ( "missing terminal +Inf",
        histogram []
          [ "h_bucket{le=\"0.1\"} 1"; "h_bucket{le=\"0.5\"} 2" ]
          [ "h_sum 0.3"; "h_count 2" ] );
      ( "count disagrees with +Inf",
        histogram []
          [ "h_bucket{le=\"0.1\"} 1"; "h_bucket{le=\"+Inf\"} 2" ]
          [ "h_sum 0.2"; "h_count 3" ] ) ];
  (* and the well-formed variant of the same histogram passes *)
  match
    P.check
      (histogram []
         [ "h_bucket{le=\"0.1\"} 1"; "h_bucket{le=\"0.5\"} 2";
           "h_bucket{le=\"+Inf\"} 2" ]
         [ "h_sum 0.3"; "h_count 2" ])
  with
  | Ok n -> check_int "well-formed histogram accepted" 5 n
  | Error e -> Alcotest.failf "well-formed histogram rejected: %s" e

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter gating" `Quick test_counter_gating;
          Alcotest.test_case "idempotent registration" `Quick
            test_registration_idempotent;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "timer observe" `Quick test_timer_observe;
          Alcotest.test_case "timer time" `Quick test_timer_time;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span unwinds on exception" `Quick
            test_span_unwinds_on_exception;
          Alcotest.test_case "tracer hooks" `Quick test_tracer_hooks;
          Alcotest.test_case "tracer args stay lazy" `Quick
            test_tracer_args_lazy;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "reset unwinds the span stack" `Quick
            test_reset_unwinds_span_stack;
          Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip ] );
      ( "clock",
        [ Alcotest.test_case "elapsed_since clamps at zero" `Quick
            test_clock_clamping ] );
      ( "log",
        [ Alcotest.test_case "disabled logging is free" `Quick
            test_log_disabled_is_free;
          Alcotest.test_case "levels, field order, JSON rendering" `Quick
            test_log_levels_and_format;
          Alcotest.test_case "with_sink restores" `Quick
            test_log_with_sink_restores ] );
      ( "prom",
        [ Alcotest.test_case "metric name sanitiser" `Quick
            test_prom_metric_name;
          Alcotest.test_case "percentile error bounds" `Quick
            test_percentile_bounds;
          (* before any other render: a label cache filled on first use
             would be filled by its racing domains *)
          Alcotest.test_case "concurrent renders agree" `Quick
            test_prom_render_concurrent;
          Alcotest.test_case "render passes check" `Quick
            test_prom_render_passes_check;
          Alcotest.test_case "check rejects malformed pages" `Quick
            test_prom_check_rejects ] ) ]
