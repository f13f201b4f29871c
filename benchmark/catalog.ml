(* Every metric the benchmark reports. BENCHMARK.json lists the same names;
   the self-test keeps the two in step. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  moves : string;  (** for a per-layer metric: the e2e metric(s) and workload(s) it should move *)
}

let m ?(better = Lower) name unit moves = { name; unit; better; moves }

(* Reported by every workload with --trace 0. *)
let end_to_end =
  [ m "setup_s" "s" "";
    m "p50_ms" "ms" "";
    m "p90_ms" "ms" "";
    m ~better:Higher "throughput" "1/s" "";
    m "rss_mb" "MB" "" ]

(* Reported by every workload with --trace 1: the wire side of the same
   run, then the traced in-process pass. *)
let per_layer =
  [ m "loadgen.gap_p99_ms" "ms" "none: the load generator's own time between a reply and its next request";
    m "server.errors" "count" "failures on prov-query, prov-correct, prov-large";
    m "server.shed" "count" "failures on prov-query, prov-correct, prov-large";
    m "server.timeouts" "count" "failures on prov-query, prov-correct, prov-large";
    m "server.reply_kb" "KB" "throughput on prov-large";
    m "server.parse_us" "us" "p50_ms on prov-query; throughput on prov-large";
    m "server.render_us" "us" "p50_ms on prov-query; throughput on prov-large";
    m "service.handle_p50_ms" "ms" "p50_ms on prov-query; throughput on prov-large and prov-correct";
    m "service.handle_p99_ms" "ms" "p90_ms on prov-query and prov-correct";
    m "service.load_rest_s" "s" "setup_s and rss_mb on prov-large; unchanged on audit";
    m "soundness.validate_ms" "ms" "p50_ms on audit; p90_ms on prov-query";
    m "corrector.correct_ms" "ms" "throughput and p90_ms on prov-correct; p50_ms on audit; unchanged on prov-query and prov-large";
    m "query.eval_ms" "ms" "throughput on prov-large; p50_ms on prov-query";
    m "lint.run_ms" "ms" "p90_ms on prov-query";
    m "graph.closure_s" "s" "setup_s on prov-large; p50_ms on audit";
    m "graph.transpose_s" "s" "setup_s on prov-large";
    m "graph.view_closure_s" "s" "setup_s on prov-large";
    m "lang.parse_s" "s" "setup_s on prov-query and prov-correct";
    m "moml.parse_s" "s" "p50_ms on audit; setup_s on prov-large";
    m "moml.render_s" "s" "p50_ms on audit";
    m "storage.open_s" "s" "setup_s on prov-large";
    m "storage.read_s" "s" "setup_s on prov-large";
    m "repository.load_s" "s" "p50_ms on audit";
    m "repository.save_s" "s" "p50_ms on audit";
    m "gc.heap_mb_after_load" "MB" "rss_mb and throughput on prov-large";
    m "gc.minor_kw_per_req" "kword" "p90_ms on prov-query; throughput on prov-large";
    m "gc.major_per_kreq" "count" "p90_ms on prov-query; throughput on prov-large";
    m "soundness.subset_checks" "count" "p50_ms on audit; p90_ms on prov-query";
    m "corrector.checks" "count" "throughput on prov-correct; p50_ms on audit";
    m "corrector.prune_probes" "count" "throughput on prov-correct; p50_ms on audit";
    m "corrector.certified" "count" "throughput and p90_ms on prov-correct";
    m "corrector.uncertified" "count" "throughput and p90_ms on prov-correct";
    m "corrector.deadline.answered_weak" "count" "guard: a prov-correct gain bought with weaker tiers";
    m ~better:Higher "corrector.deadline.answered_strong" "count" "guard: a prov-correct gain bought with weaker tiers";
    m ~better:Higher "corrector.deadline.answered_optimal" "count" "guard: a prov-correct gain bought with weaker tiers";
    m "trace.overhead_pct" "%" "none: cost of the collector on the traced replay" ]

let find name = List.find (fun x -> x.name = name) (end_to_end @ per_layer)
let better_name = function Lower -> "lower" | Higher -> "higher"
