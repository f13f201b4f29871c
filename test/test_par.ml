(* The domain pool and the parallel = sequential contracts: closure rows,
   soundness verdicts and corrector outputs must be byte-identical at every
   domain count, and metrics recorded from several domains at once must
   add up to the totals the sequential run records. *)

module Par = Wolves_par.Par
module Bitset = Wolves_graph.Bitset
module Digraph = Wolves_graph.Digraph
module Reach = Wolves_graph.Reach
open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module Metrics = Wolves_obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let domain_counts = [ 1; 2; 4; 8 ]

let with_domains d f =
  let saved = Par.default_domains () in
  Par.set_default_domains d;
  Fun.protect ~finally:(fun () -> Par.set_default_domains saved) f

(* ------------------------------------------------------------------ *)
(* The pool itself                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_covers () =
  let n = 1000 in
  let hits = Array.make n 0 in
  (* Disjoint writes: each worker only touches its own indices. *)
  Par.parallel_for ~domains:4 n (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "every index ran exactly once" true
    (Array.for_all (fun c -> c = 1) hits);
  Par.parallel_for ~domains:4 0 (fun _ -> assert false)

let test_map_ordered () =
  let input = Array.init 257 Fun.id in
  let out = Par.map_ordered ~domains:4 (fun i -> i * i) input in
  check_bool "results placed by index" true
    (out = Array.map (fun i -> i * i) input);
  check_bool "empty input" true (Par.map_ordered ~domains:4 Fun.id [||] = [||])

let test_map_ordered_exn () =
  (* Every item fails; the exception surfaced must be the lowest-indexed
     one, whatever domain got there first. *)
  let f i = if i >= 0 then failwith (string_of_int i) else i in
  Alcotest.check_raises "lowest-index failure wins" (Failure "0") (fun () ->
      ignore (Par.map_ordered ~domains:4 f (Array.init 100 Fun.id)))

let test_nested_runs_inline () =
  (* A parallel_for from inside a pool job must not deadlock on the pool:
     nested calls run inline on the calling domain. *)
  let total = Atomic.make 0 in
  Par.parallel_for ~domains:2 8 (fun _ ->
      Par.parallel_for ~domains:2 8 (fun _ -> ignore (Atomic.fetch_and_add total 1)));
  check_int "all inner iterations ran" 64 (Atomic.get total)

let test_shutdown_restart_cycles () =
  (* shutdown joins the workers; the next parallel call must transparently
     rebuild the pool, through resizes, repeatedly. *)
  let input = Array.init 64 Fun.id in
  let expect = Array.map (fun i -> i * i) input in
  let sq domains = Par.map_ordered ~domains (fun i -> i * i) input in
  let check_arr msg got = check_bool msg true (got = expect) in
  Par.shutdown ();
  check_arr "fresh pool after shutdown" (sq 3);
  check_arr "resize up without shutdown" (sq 5);
  check_arr "resize down without shutdown" (sq 2);
  Par.shutdown ();
  Par.shutdown ();
  (* idempotent *)
  check_arr "rebuilt after double shutdown" (sq 2);
  Par.shutdown ();
  check_arr "inline (1 domain) needs no pool" (sq 1);
  check_arr "and the pool comes back once more" (sq 4);
  (* parallel_for across the same cycle *)
  Par.shutdown ();
  let hits = Array.make 128 0 in
  Par.parallel_for ~domains:3 128 (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "parallel_for covers after restart" true
    (Array.for_all (( = ) 1) hits);
  Par.shutdown ()

(* Two domains submitting to the pool at once: one holds it, the other
   runs inline, and both finish every round with the right answer. A pool
   that deadlocks here can stall the whole runtime, polling domain
   included, so the watchdog is a plain SIGALRM: it kills the test binary
   within seconds instead of hanging the suite. *)
let test_concurrent_submitters () =
  let rounds = 20_000 in
  let input = Array.init 16 Fun.id in
  let expect = Array.map (fun i -> i * i) input in
  let submitter () =
    let ok = ref true in
    for _ = 1 to rounds do
      if Par.map_ordered ~domains:4 (fun i -> i * i) input <> expect then
        ok := false
    done;
    !ok
  in
  Sys.set_signal Sys.sigalrm Sys.Signal_default;
  ignore (Unix.alarm 20);
  let results =
    List.map Domain.join (List.init 2 (fun _ -> Domain.spawn submitter))
  in
  ignore (Unix.alarm 0);
  check_bool "every round of both submitters correct" true
    (List.for_all Fun.id results)

let test_nested_inline_single_domain () =
  (* With the process default pinned to 1 domain, nesting must stay fully
     inline — no pool is created, results are the sequential ones. *)
  let saved = Par.default_domains () in
  Par.set_default_domains 1;
  Fun.protect
    ~finally:(fun () -> Par.set_default_domains saved)
    (fun () ->
      Par.shutdown ();
      let out = Array.make 16 (-1) in
      Par.parallel_for 4 (fun i ->
          Par.parallel_for 4 (fun j -> out.((i * 4) + j) <- (i * 4) + j));
      check_bool "nested inline covers every index" true
        (out = Array.init 16 Fun.id);
      let ys = Par.map_ordered (fun x -> -x) (Array.init 8 Fun.id) in
      check_bool "inline map_ordered after shutdown" true
        (ys = Array.init 8 (fun i -> -i)))

(* ------------------------------------------------------------------ *)
(* Parallel = sequential                                               *)
(* ------------------------------------------------------------------ *)

(* Closure rows over random general graphs — cycles allowed, so this walks
   the condensation path as well as the DAG path. *)
let closure_par_eq_seq =
  QCheck2.Test.make ~name:"parallel closure = sequential closure" ~count:60
    QCheck2.Gen.(
      pair (int_range 2 40)
        (list_size (int_range 0 120) (pair (int_bound 39) (int_bound 39))))
    (fun (n, edges) ->
      let edges =
        List.filter (fun (u, v) -> u < n && v < n && u <> v) edges
      in
      let g = Digraph.of_edges ~n edges in
      let reference = with_domains 1 (fun () -> Reach.compute g) in
      List.for_all
        (fun d ->
          with_domains d (fun () -> Reach.equal reference (Reach.compute g)))
        domain_counts)

(* Same over every generator family (all DAGs, larger). *)
let test_closure_families () =
  List.iter
    (fun family ->
      let spec = Gen.generate family ~seed:7 ~size:150 in
      let g = Spec.graph spec in
      let reference = with_domains 1 (fun () -> Reach.compute g) in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "%s closure identical at %d domains"
               (Gen.family_name family) d)
            true
            (with_domains d (fun () -> Reach.equal reference (Reach.compute g))))
        domain_counts)
    Gen.all_families

let test_validate_families () =
  List.iter
    (fun family ->
      let spec = Gen.generate family ~seed:3 ~size:60 in
      let view =
        Views.inject_unsoundness ~seed:3 ~attempts:40
          (Views.build ~seed:3 (Views.Topological_bands 6) spec)
      in
      let reference = S.validate ~domains:1 view in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "%s report identical at %d domains"
               (Gen.family_name family) d)
            true
            ((S.validate ~domains:d view).S.unsound = reference.S.unsound))
        domain_counts)
    Gen.all_families

let test_correct_families () =
  let corpus =
    Views.unsound_corpus ~seed:5 ~families:Gen.all_families ~sizes:[ 20 ]
      ~per_cell:1
  in
  let shape v =
    List.map
      (fun c -> (View.composite_name v c, View.members v c))
      (View.composites v)
  in
  let parts outcomes = List.map (fun (c, o) -> (c, o.C.parts)) outcomes in
  List.iteri
    (fun i (_, view) ->
      let ref_view, ref_outcomes =
        with_domains 1 (fun () -> C.correct C.Strong view)
      in
      List.iter
        (fun d ->
          let v, outcomes = C.correct ~domains:d C.Strong view in
          check_bool
            (Printf.sprintf "corpus #%d corrected view identical at %d domains"
               i d)
            true
            (shape v = shape ref_view);
          check_bool
            (Printf.sprintf "corpus #%d outcome parts identical at %d domains"
               i d)
            true
            (parts outcomes = parts ref_outcomes))
        domain_counts)
    corpus

(* ------------------------------------------------------------------ *)
(* Recording from several domains                                      *)
(* ------------------------------------------------------------------ *)

(* The registry totals of a parallel validate must equal the sequential
   run's, counter for counter. *)
let test_validate_metric_totals () =
  let spec = Gen.generate Gen.Layered ~seed:9 ~size:80 in
  let view =
    Views.inject_unsoundness ~seed:9 ~attempts:40
      (Views.build ~seed:9 (Views.Topological_bands 8) spec)
  in
  let soundness_counters d =
    Metrics.reset ();
    Metrics.enabled (fun () -> ignore (S.validate ~domains:d view));
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"soundness." name)
      (Metrics.snapshot ()).Metrics.counters
  in
  let reference = soundness_counters 1 in
  check_bool "sequential run recorded something" true
    (List.exists (fun (_, v) -> v > 0) reference);
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "parallel totals match sequential at %d domains" d)
        true
        (soundness_counters d = reference))
    [ 2; 4; 8 ]

(* Four spawned domains record into one counter and one timer at once: no
   update is lost. Every observation is a multiple of 2^-10 s, so the
   timer's sum is exact in any order of addition. *)
let test_domains_record_directly () =
  Metrics.reset ();
  let c = Metrics.counter "test.par.direct" in
  let t = Metrics.timer "test.par.direct_time" in
  let per_domain = 10_000 in
  let unit_s = 1. /. 1024. in
  Metrics.enabled (fun () ->
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              for i = 1 to per_domain do
                Metrics.incr c;
                Metrics.observe t (float_of_int (i mod 8) *. unit_s)
              done))
      |> List.iter Domain.join);
  let total = 4 * per_domain in
  check_int "counter total" total (Metrics.counter_value c);
  let st = Metrics.timer_stats t in
  check_int "timer count" total st.Metrics.count;
  check_int "+Inf bucket (all buckets) = count" st.Metrics.count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 st.Metrics.buckets);
  (* each domain adds 1..7 then 0, per_domain / 8 times *)
  Alcotest.(check (float 0.)) "timer sum"
    (float_of_int (4 * (per_domain / 8) * 28) *. unit_s)
    st.Metrics.sum;
  Alcotest.(check (float 0.)) "timer max" (7. *. unit_s) st.Metrics.max

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_par"
    [ ( "pool",
        [ Alcotest.test_case "parallel_for covers" `Quick
            test_parallel_for_covers;
          Alcotest.test_case "map_ordered order" `Quick test_map_ordered;
          Alcotest.test_case "map_ordered exceptions" `Quick
            test_map_ordered_exn;
          Alcotest.test_case "nested calls run inline" `Quick
            test_nested_runs_inline;
          Alcotest.test_case "shutdown/restart cycles" `Quick
            test_shutdown_restart_cycles;
          Alcotest.test_case "nested inline under 1 domain" `Quick
            test_nested_inline_single_domain;
          Alcotest.test_case "concurrent submitters" `Quick
            test_concurrent_submitters ] );
      ( "determinism",
        [ qt closure_par_eq_seq;
          Alcotest.test_case "closure over families" `Slow
            test_closure_families;
          Alcotest.test_case "validate over families" `Slow
            test_validate_families;
          Alcotest.test_case "correct over corpus" `Slow test_correct_families ] );
      ( "registry",
        [ Alcotest.test_case "validate metric totals" `Quick
            test_validate_metric_totals;
          Alcotest.test_case "domains record directly" `Quick
            test_domains_record_directly ] ) ]
