(* The traced pass: in process and separate from the end-to-end run. Every
   library call a per-layer metric names is wrapped here in a span under a
   Wolves_trace collector; spans the library emits by itself land in the
   same trace, but no metric is defined on them. *)

open Wolves_workflow
module Clock = Wolves_obs.Clock
module Metrics = Wolves_obs.Metrics
module Trace = Wolves_trace.Trace
module Service = Wolves_server.Service
module Protocol = Wolves_server.Protocol

(* Seconds spent per probe name, and calls made. *)
type probes = (string, float * int) Hashtbl.t

let timed (p : probes) name f =
  let r, dt = Clock.time (fun () -> Metrics.with_span name f) in
  let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt p name) in
  Hashtbl.replace p name (s +. dt, n + 1);
  r

let total p name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt p name))

let mean_ms p name =
  match Hashtbl.find_opt p name with
  | Some (s, n) when n > 0 -> s *. 1e3 /. float_of_int n
  | _ -> 0.

let ok what = function
  | Ok x -> x
  | Error _ -> failwith ("traced pass: " ^ what ^ " failed")

let largest_composite view =
  List.fold_left (fun a c -> max a (List.length (View.members view c))) 0 (View.composites view)

(* One pass over every layer on the workload's corpus. Indexes are timed on
   their first force of a freshly parsed spec. Correction is probed only
   where no composite exceeds 256 tasks, which keeps montage-1024 (seconds
   per correction) out of the prov-large pass. *)
let probe_layers p w ~seed ~work generated =
  let st = Random.State.make [| seed; 5 |] in
  let parsed =
    List.map
      (fun (id, view) ->
        Metrics.with_span ~args:(fun () -> [ ("workflow", id) ]) "probe" @@ fun () ->
        let wf = Wolves_lang.Wfdsl.to_string view in
        let moml = timed p "moml.render" (fun () -> Wolves_moml.Moml.to_string view) in
        let from_wf = timed p "lang.parse" (fun () -> ok "parse" (Wolves_lang.Wfdsl.of_string wf)) in
        let from_moml = timed p "moml.parse" (fun () -> ok "parse" (Wolves_moml.Moml.of_string moml)) in
        let v = snd (if Corpus.format w = Wf then from_wf else from_moml) in
        let spec = View.spec v in
        let reach = timed p "graph.closure" (fun () -> Spec.reach spec) in
        if Spec.n_tasks spec > 0 then
          ignore (timed p "graph.transpose" (fun () -> Wolves_graph.Reach.ancestors reach 0));
        ignore (timed p "graph.view_closure" (fun () -> View.view_reach v));
        (id, v))
      generated
  in
  let service = timed p "service.load_rest" (fun () -> Service.load parsed) in
  Gc.full_major ();
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6 in
  List.iter
    (fun (id, v) ->
      Metrics.with_span ~args:(fun () -> [ ("workflow", id) ]) "probe" @@ fun () ->
      ignore (timed p "soundness.validate" (fun () -> Wolves_core.Soundness.validate ~domains:1 v));
      ignore (timed p "lint.run" (fun () -> Wolves_lint.Lint.run v));
      if largest_composite v <= 256 then
        ignore
          (timed p "corrector.correct" (fun () ->
               Wolves_core.Corrector.correct ~domains:1 Wolves_core.Corrector.Strong v));
      let spec = View.spec v in
      for _ = 1 to 3 do
        let t = Spec.task_name spec (Random.State.int st (Spec.n_tasks spec)) in
        List.iter
          (fun kind ->
            let expr = Corpus.query kind t in
            ignore (timed p "query.eval" (fun () -> ok "query" (Wolves_query.Query.eval_names v expr))))
          [ Corpus.Anc; Desc; Over ]
      done)
    parsed;
  let module R = Wolves_repository.Repository in
  let repo = R.create () in
  List.iter (fun (id, v) -> ignore (R.add repo ~id ~origin:"benchmark" (View.spec v) v)) parsed;
  let dir = Filename.concat work "traced-repository" and store = Filename.concat work "traced-store" in
  timed p "repository.save" (fun () -> ok "save_dir" (R.save_dir dir repo));
  ignore (timed p "repository.load" (fun () -> ok "load_dir" (R.load_dir dir)));
  ok "save_store" (R.save_store store repo);
  let module S = Wolves_storage.Store in
  let s, _ = timed p "storage.open" (fun () -> ok "open" (S.open_ store)) in
  ignore (timed p "storage.read" (fun () -> ok "latest" (S.latest s S.Workflow)));
  ok "close" (S.close s);
  (service, heap_mb)

(* Replays [reqs] through parse, Service.handle and render. Returns the
   per-request timings and the replay's wall time. *)
let replay service (reqs : Corpus.req array) =
  let n = Array.length reqs in
  let parse = Array.make n 0. and handle = Array.make n 0. and render = Array.make n 0. in
  let bytes = ref 0 in
  let _, wall =
    Clock.time (fun () ->
        Array.iteri
          (fun i (r : Corpus.req) ->
            Metrics.with_span
              ~args:(fun () -> [ ("request_id", string_of_int i); ("line", r.line) ])
              "request"
            @@ fun () ->
            let q, dp = Clock.time (fun () -> Metrics.with_span "server.parse" (fun () -> Protocol.parse r.line)) in
            let q = ok "request parse" (Result.map_error fst q) in
            let reply, dh = Clock.time (fun () -> Metrics.with_span "service.handle" (fun () -> Service.handle service q)) in
            let text, dr = Clock.time (fun () -> Metrics.with_span "server.render" (fun () -> Protocol.render reply)) in
            parse.(i) <- dp;
            handle.(i) <- dh;
            render.(i) <- dr;
            bytes := !bytes + String.length text)
          reqs)
  in
  (parse, handle, render, !bytes, wall)

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a))

let replay_list w ~seed generated =
  match w with
  | Corpus.Audit ->
      Array.of_list
        (List.concat_map
           (fun (id, _) -> [ Corpus.request Validate id ""; Corpus.request Strong id "" ])
           generated)
  | _ -> Corpus.requests w ~seed generated 5000

type result = {
  values : (string * float) list;  (** the per-layer metrics it defines *)
  base : string;  (** path prefix of its two files *)
  profile : Wolves_trace.Profile.t;
  counters : (string * int) list;  (** the whole registry *)
  dropped : int;  (** events the collector's ring lost *)
  replayed : int;
}

let counters =
  [ "soundness.subset_checks"; "corrector.checks"; "corrector.prune_probes";
    "corrector.certified"; "corrector.uncertified";
    "corrector.deadline.answered_weak"; "corrector.deadline.answered_strong";
    "corrector.deadline.answered_optimal" ]

(* The replay runs twice over the same prefix: first with the collector
   and registry off (timings and GC deltas), then traced (the Perfetto
   file, and the overhead). The prefix is what fits in a quarter of
   [seconds]. *)
let run (w : Corpus.workload) ~seed ~seconds ~work ~trace_dir =
  let generated = Corpus.views w ~seed in
  let collector = Trace.create ~capacity:(1 lsl 19) () in
  let p : probes = Hashtbl.create 32 in
  Metrics.reset ();
  Metrics.set_enabled true;
  let service, heap_mb =
    Trace.with_tracing collector (fun () -> probe_layers p w ~seed ~work generated)
  in
  Metrics.set_enabled false;
  let all = replay_list w ~seed generated in
  let budget = seconds /. 4. in
  let t0 = Clock.now () and k = ref 0 in
  while !k < Array.length all && Clock.elapsed_since t0 < budget do
    ignore (Service.handle service (ok "parse" (Result.map_error fst (Protocol.parse all.(!k).line))));
    incr k
  done;
  let reqs = Array.sub all 0 !k in
  let g0 = Gc.quick_stat () in
  let parse, handle, render, bytes, off_wall = replay service reqs in
  let g1 = Gc.quick_stat () in
  Metrics.set_enabled true;
  let _, _, _, _, on_wall = Trace.with_tracing collector (fun () -> replay service reqs) in
  Metrics.set_enabled false;
  let snapshot = Metrics.snapshot () in
  let events = Trace.events collector in
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let base = Filename.concat trace_dir (Corpus.name w) in
  Wolves_trace.Export.write Wolves_trace.Export.Chrome events (base ^ ".trace.json");
  let n = float_of_int (max 1 !k) in
  let handle_sorted = Stats.sorted handle in
  let counter name = Option.value ~default:0 (List.assoc_opt name snapshot.Metrics.counters) in
  let values =
    [ ("server.reply_kb", float_of_int bytes /. n /. 1024.);
      ("server.parse_us", mean parse *. 1e6);
      ("server.render_us", mean render *. 1e6);
      ("service.handle_p50_ms", Stats.quantile_sorted handle_sorted 0.5 *. 1e3);
      ("service.handle_p99_ms", Stats.quantile_sorted handle_sorted 0.99 *. 1e3);
      ("service.load_rest_s", total p "service.load_rest");
      ("soundness.validate_ms", mean_ms p "soundness.validate");
      ("corrector.correct_ms", mean_ms p "corrector.correct");
      ("query.eval_ms", mean_ms p "query.eval");
      ("lint.run_ms", mean_ms p "lint.run");
      ("graph.closure_s", total p "graph.closure");
      ("graph.transpose_s", total p "graph.transpose");
      ("graph.view_closure_s", total p "graph.view_closure");
      ("lang.parse_s", total p "lang.parse");
      ("moml.parse_s", total p "moml.parse");
      ("moml.render_s", total p "moml.render");
      ("storage.open_s", total p "storage.open");
      ("storage.read_s", total p "storage.read");
      ("repository.load_s", total p "repository.load");
      ("repository.save_s", total p "repository.save");
      ("gc.heap_mb_after_load", heap_mb);
      ("gc.minor_kw_per_req", (g1.Gc.minor_words -. g0.Gc.minor_words) /. n /. 1e3);
      ("gc.major_per_kreq", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) *. 1e3 /. n);
      ("trace.overhead_pct", (on_wall /. off_wall -. 1.) *. 100.) ]
    @ List.map (fun c -> (c, float_of_int (counter c))) counters
  in
  { values; base; profile = Wolves_trace.Profile.of_events events;
    counters = snapshot.Metrics.counters; dropped = Trace.dropped collector; replayed = !k }
