(* The WOLVES command-line interface: every interaction the VLDB'09 demo GUI
   offered (import, understand, validate, correct, split/merge a single task,
   provenance analysis, estimation) as subcommands, plus corpus generation
   and repository audits. *)

open Cmdliner
open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module E = Wolves_core.Estimator
module Q = Wolves_core.Quality
module Moml = Wolves_moml.Moml
module Render = Wolves_cli.Render
module Table = Wolves_cli.Table
module R = Wolves_repository.Repository
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module P = Wolves_provenance.Provenance

let fail fmt = Format.kasprintf (fun msg -> `Error (false, msg)) fmt

(* Set when a requested artifact (metrics dump, trace, ...) could not be
   written. Those failures are reported on stderr mid-command and must not
   abort the primary output, but the process still has to exit non-zero —
   a --json consumer that also asked for --metrics would otherwise read a
   clean exit while the dump silently never appeared. Checked in [main]. *)
let io_failure = ref false

let report_io_failure what msg =
  io_failure := true;
  Printf.eprintf "wolves: cannot write %s: %s\n" what msg

(* Format by extension: .wf is the human DSL, anything else is MoML. *)
let load_view file =
  if Filename.check_suffix file ".wf" then
    match Wolves_lang.Wfdsl.load file with
    | Ok (_, view) -> Ok view
    | Error e ->
      (* [load] errors carry the path; pp_error renders it. *)
      Error (Format.asprintf "%a" Wolves_lang.Wfdsl.pp_error e)
  else
    match Moml.load file with
    | Ok (_, view) -> Ok view
    | Error e -> Error (Format.asprintf "%s: %a" file Moml.pp_error e)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let serialize_view path view =
  if Filename.check_suffix path ".wf" then Wolves_lang.Wfdsl.to_string view
  else Moml.to_string view

(* --- common arguments --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.moml"
         ~doc:"MoML document holding the workflow specification and view.")

let criterion_arg =
  let criterion_conv =
    Arg.conv
      ( (fun s ->
          match C.criterion_of_string s with
          | Some c -> Ok c
          | None -> Error (`Msg (Printf.sprintf "unknown criterion %S" s))),
        fun ppf c -> C.pp_criterion ppf c )
  in
  Arg.(value & opt criterion_conv C.Strong & info [ "criterion"; "c" ] ~docv:"CRITERION"
         ~doc:"Correction criterion: $(b,weak), $(b,strong) or $(b,optimal).")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
         ~doc:"Write the resulting view as MoML to this file.")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT.dot"
         ~doc:"Also write a Graphviz rendering (unsound composites in red).")

let color_arg =
  Arg.(value & flag & info [ "color" ] ~doc:"Colourise terminal output.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

module Json = Wolves_cli.Json
module Metrics = Wolves_obs.Metrics
module Par = Wolves_par.Par

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Run the validator/corrector across N domains (cores). \
               Defaults to $(b,WOLVES_DOMAINS) or 1; results are identical \
               at every domain count.")

let with_domains domains f =
  match domains with
  | None -> f ()
  | Some n ->
    if n < 1 then fail "--domains must be at least 1"
    else begin
      let saved = Par.default_domains () in
      Par.set_default_domains n;
      Fun.protect ~finally:(fun () -> Par.set_default_domains saved) f
    end

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"OUT.json"
         ~doc:"Enable the $(b,Wolves_obs) instrumentation for this command \
               and dump the metrics registry (counters, gauges, timer \
               histograms) as JSON to this file.")

(* Run the instrumented portion of a command: enable recording only when the
   user asked for a metrics dump, and write the dump on the way out (also on
   exceptions). Callers must not [exit] inside [f] — process exits (validate
   exits 1 on unsound views) belong after the dump is written. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
    Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_enabled false;
        try write_file path (Metrics.dump_json ())
        with Sys_error msg -> report_io_failure "metrics dump" msg)
      f

module Trace = Wolves_trace.Trace
module Trace_export = Wolves_trace.Export
module Trace_profile = Wolves_trace.Profile

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.json"
         ~doc:"Record an event-level trace of this command and write it to \
               this file; the extension picks the format: $(b,.json) is \
               Chrome trace-event JSON (open in Perfetto or \
               $(b,chrome://tracing)), $(b,.jsonl) one event per line, \
               $(b,.folded) collapsed stacks for flamegraph tools.")

(* The instrumented portion of a command under both observability layers:
   metrics dump and/or event trace, each only when requested, both written on
   the way out (also on exceptions). *)
let with_observability metrics trace f =
  let traced g =
    match trace with
    | None -> g ()
    | Some path ->
      let collector = Trace.create () in
      Fun.protect
        ~finally:(fun () ->
          try
            Trace_export.write
              (Trace_export.format_of_path path)
              (Trace.events collector) path
          with Sys_error msg -> report_io_failure "trace" msg)
        (fun () -> Trace.with_tracing collector g)
  in
  with_metrics metrics (fun () -> traced f)

let validation_json view report =
  let spec = View.spec view in
  Json.Obj
    [ ("workflow", Json.String (Spec.name spec));
      ("composites", Json.Int (View.n_composites view));
      ("sound", Json.Bool (report.S.unsound = []));
      ( "unsound",
        Json.List
          (List.map
             (fun (c, _) ->
               Json.Obj
                 [ ("composite", Json.String (View.composite_name view c));
                   ( "members",
                     Json.List
                       (List.map
                          (fun t -> Json.String (Spec.task_name spec t))
                          (View.members view c)) );
                   ( "missing_paths",
                     Json.List
                       (List.map
                          (fun (ti, to_) ->
                            Json.Obj
                              [ ("from", Json.String (Spec.task_name spec ti));
                                ("to", Json.String (Spec.task_name spec to_)) ])
                          (S.composite_witnesses view c)) ) ])
             report.S.unsound) ) ]

(* --- show --- *)

let show_cmd =
  let run file dot =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      print_string (Render.spec_summary (View.spec view));
      print_newline ();
      print_string (Render.view_summary view);
      Option.iter (fun path -> write_file path (Render.view_dot view)) dot;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Display a workflow specification and its view.")
    Term.(ret (const run $ file_arg $ dot_arg))

(* --- validate --- *)

let validate_cmd =
  let run file color dot json metrics trace domains =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      with_domains domains @@ fun () ->
      let report =
        with_observability metrics trace (fun () -> S.validate view)
      in
      if json then print_endline (Json.to_string (validation_json view report))
      else print_string (Render.view_summary ~color view);
      Option.iter (fun path -> write_file path (Render.view_dot view)) dot;
      if report.S.unsound = [] then `Ok ()
      else begin
        if not json then
          Printf.printf "view is UNSOUND (%d composite(s))\n"
            (List.length report.S.unsound);
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check view soundness (Workflow View Validator). Exits 1 when the \
          view is unsound; unsound composites and their missing paths are \
          listed.")
    Term.(ret (const run $ file_arg $ color_arg $ dot_arg $ json_arg
               $ metrics_arg $ trace_arg $ domains_arg))

(* --- correct --- *)

let correct_cmd =
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS"
           ~doc:"Correct under a wall-clock budget (milliseconds): the \
                 corrector degrades optimal → strong → weak as the budget \
                 expires and reports which tier answered. Overrides \
                 $(b,--criterion).")
  in
  let run file criterion deadline output dot metrics trace domains =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      with_domains domains @@ fun () ->
      (match deadline with
       | Some ms ->
         let (corrected, outcomes), elapsed =
           with_observability metrics trace (fun () ->
               Render.time (fun () ->
                   C.correct_with_deadline ~deadline_s:(ms /. 1000.0) view))
         in
         if outcomes = [] then print_endline "view already sound"
         else
           List.iter
             (fun (c, o) ->
               Format.printf "%s: %a%s@."
                 (View.composite_name view c)
                 C.pp_tier_outcome o
                 (if o.C.proven_optimal then ", proven minimum" else ""))
             outcomes;
         Printf.printf "corrected in %.4fs under a %.3f ms deadline\n" elapsed
           ms;
         print_string (Render.view_summary corrected);
         Option.iter
           (fun path -> write_file path (serialize_view path corrected))
           output;
         Option.iter (fun path -> write_file path (Render.view_dot corrected)) dot;
         `Ok ()
       | None ->
         let (corrected, outcomes), elapsed =
           with_observability metrics trace (fun () ->
               Render.time (fun () -> C.correct criterion view))
         in
         print_string (Render.correction_summary view outcomes);
         Printf.printf "corrected in %.4fs under the %s criterion\n" elapsed
           (Format.asprintf "%a" C.pp_criterion criterion);
         print_string (Render.view_summary corrected);
         Option.iter (fun path -> write_file path (serialize_view path corrected)) output;
         Option.iter (fun path -> write_file path (Render.view_dot corrected)) dot;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "correct"
       ~doc:
         "Resolve every unsound composite by splitting (Unsound View \
          Corrector), under the chosen optimality criterion — or under a \
          wall-clock deadline with $(b,--deadline), degrading optimal → \
          strong → weak as the budget expires.")
    Term.(ret (const run $ file_arg $ criterion_arg $ deadline_arg
               $ output_arg $ dot_arg $ metrics_arg $ trace_arg
               $ domains_arg))

(* --- split-task --- *)

let task_arg =
  Arg.(required & opt (some string) None & info [ "task"; "t" ] ~docv:"NAME"
         ~doc:"Name of the composite task to operate on.")

let split_cmd =
  let run file task criterion output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      (match View.composite_of_name view task with
       | None -> fail "no composite named %S" task
       | Some c ->
         let view', outcome = C.split_composite criterion view c in
         print_string (Render.correction_summary view [ (c, outcome) ]);
         print_string (Render.view_summary view');
         Option.iter (fun path -> write_file path (serialize_view path view')) output;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "split-task"
       ~doc:"Split one composite task (the demo's Split Task popup action).")
    Term.(ret (const run $ file_arg $ task_arg $ criterion_arg $ output_arg))

(* --- merge-task --- *)

let merge_cmd =
  let run file task output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      (match View.composite_of_name view task with
       | None -> fail "no composite named %S" task
       | Some c ->
         let view', merged = C.merge_resolve view c in
         Printf.printf
           "resolved %S by merging; the merged composite %S now has %d tasks\n"
           task
           (View.composite_name view' merged)
           (List.length (View.members view' merged));
         print_string (Render.view_summary view');
         Option.iter (fun path -> write_file path (serialize_view path view')) output;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "merge-task"
       ~doc:
         "Resolve an unsound composite by merging it with neighbouring \
          composites (extension; loses detail instead of adding it).")
    Term.(ret (const run $ file_arg $ task_arg $ output_arg))

(* --- provenance --- *)

let provenance_cmd =
  let run file task =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      (match View.composite_of_name view task with
       | None -> fail "no composite named %S" task
       | Some c ->
         print_string (Render.provenance_summary view c);
         let stats = P.evaluate_view view in
         Printf.printf
           "whole-view provenance audit: %d queries, %d spurious, %d missing\n"
           stats.P.queries stats.P.spurious stats.P.missing;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:
         "Analyse the view-level provenance of one composite's output and \
          report any spurious data items (the paper's Figure 1 walkthrough).")
    Term.(ret (const run $ file_arg $ task_arg))

(* --- estimate --- *)

let estimate_cmd =
  let run file task =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      (match View.composite_of_name view task with
       | None -> fail "no composite named %S" task
       | Some c ->
         let spec = View.spec view in
         let members = View.members view c in
         let features = E.features_of spec members in
         (* Build a history from synthetic instances in the same feature
            group (the demo grouped past corrections by size and
            substructure). *)
         let history = E.create () in
         let rng = Wolves_workload.Prng.create 0xE57 in
         for _ = 1 to 60 do
           let seed = Wolves_workload.Prng.int rng 1_000_000 in
           let size = max 4 (List.length members + Wolves_workload.Prng.int rng 3 - 1) in
           let family = Wolves_workload.Prng.pick rng Gen.all_families in
           let spec' = Gen.generate family ~seed ~size in
           let members' =
             List.filteri (fun i _ -> i < List.length members)
               (Wolves_workload.Prng.shuffle rng (Spec.tasks spec'))
           in
           let f = E.features_of spec' members' in
           List.iter
             (fun criterion ->
               let cmp, elapsed =
                 Render.time (fun () -> C.split_subset criterion spec' members')
               in
               let quality =
                 match criterion with
                 | C.Optimal -> 1.0
                 | _ ->
                   let opt = C.split_subset C.Optimal spec' members' in
                   Q.ratio
                     ~optimal_parts:(List.length opt.C.parts)
                     ~parts:(List.length cmp.C.parts)
               in
               E.record history f criterion ~runtime:elapsed ~quality)
             [ C.Weak; C.Strong; C.Optimal ]
         done;
         Format.printf "composite %S: %a@." task E.pp_features features;
         let rows =
           List.map
             (fun criterion ->
               let est = E.estimate history features criterion in
               [ Format.asprintf "%a" C.pp_criterion criterion;
                 (match est.E.expected_runtime with
                  | Some t -> Printf.sprintf "%.6fs" t
                  | None -> "-");
                 (match est.E.expected_quality with
                  | Some q -> Printf.sprintf "%.3f" q
                  | None -> "-");
                 string_of_int est.E.samples ])
             [ C.Weak; C.Strong; C.Optimal ]
         in
         print_endline
           (Table.render
              ~header:[ "criterion"; "est. time"; "est. quality"; "samples" ]
              rows);
         `Ok ())
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate correction time and quality per criterion from a history \
          of past corrections grouped by size and substructure (demo §3.2).")
    Term.(ret (const run $ file_arg $ task_arg))

(* --- generate --- *)

let generate_cmd =
  let family_conv =
    Arg.conv
      ( (fun s ->
          match Gen.family_of_string s with
          | Some f -> Ok f
          | None -> Error (`Msg (Printf.sprintf "unknown family %S" s))),
        fun ppf f -> Format.pp_print_string ppf (Gen.family_name f) )
  in
  let family =
    Arg.(value & opt family_conv Gen.Layered & info [ "family" ] ~docv:"FAMILY"
           ~doc:"Workflow family: layered, erdos-renyi, series-parallel, pipeline.")
  in
  let size =
    Arg.(value & opt int 20 & info [ "size" ] ~docv:"N"
           ~doc:"Number of tasks (with $(b,--suite): the scale is N / 4).")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let group =
    Arg.(value & opt int 4 & info [ "group" ] ~docv:"K" ~doc:"Composite size.")
  in
  let unsound =
    Arg.(value & flag & info [ "unsound" ]
           ~doc:"Perturb the view until it is unsound.")
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT"
           ~doc:"Output MoML file.")
  in
  let suite =
    let suite_conv =
      Arg.conv
        ( (fun s ->
            match Wolves_workload.Templates.suite_of_string s with
            | Some f -> Ok f
            | None -> Error (`Msg (Printf.sprintf "unknown suite %S" s))),
          fun ppf f ->
            Format.pp_print_string ppf (Wolves_workload.Templates.suite_name f) )
    in
    Arg.(value & opt (some suite_conv) None & info [ "suite" ] ~docv:"SUITE"
           ~doc:"Scientific-workflow template instead of a random family: \
                 montage, cybershake, epigenomics, ligo (with its natural \
                 per-stage view) at scale --size / 4, at least 1.")
  in
  let run family suite_opt size seed group unsound out =
    if size < 2 then fail "size must be at least 2"
    else begin
      let module T = Wolves_workload.Templates in
      let spec, view =
        match suite_opt with
        | Some s ->
          let spec = T.generate s ~scale:(max 1 (size / 4)) in
          (spec, T.natural_view s spec)
        | None ->
          let spec = Gen.generate family ~seed ~size in
          (spec, Views.build ~seed (Views.Connected_groups group) spec)
      in
      ignore spec;
      let view =
        if unsound then Views.inject_unsoundness ~seed:(seed + 1) ~attempts:(4 * size) view
        else view
      in
      write_file out (serialize_view out view);
      Printf.printf "wrote %s (%d tasks, %d composites, %s)\n" out
        (Spec.n_tasks (View.spec view))
        (View.n_composites view)
        (if S.is_sound view then "sound" else "unsound");
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic workflow and view (MoML or .wf).")
    Term.(ret (const run $ family $ suite $ size $ seed $ group $ unsound $ out))

(* --- audit --- *)

let audit_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
           ~doc:"Directory of .moml files.")
  in
  let correct_flag =
    Arg.(value & flag & info [ "correct" ]
           ~doc:"Also correct every unsound view (strong criterion) in place.")
  in
  let keep_going_flag =
    Arg.(value & flag & info [ "keep-going"; "k" ]
           ~doc:"Best-effort load: audit the entries that parse and report \
                 the ones that fail, instead of aborting on the first bad \
                 file.")
  in
  let run dir correct_ keep_going =
    let loaded =
      if keep_going then R.load_dir_lenient dir
      else Result.map (fun repo -> (repo, [])) (R.load_dir dir)
    in
    match loaded with
    | Error e -> fail "%a" R.pp_io_error e
    | Ok (repo, failed) ->
      List.iter
        (fun (file, err) ->
          Format.printf "skipped %s: %a@." file R.pp_io_error err)
        failed;
      if failed <> [] then
        Printf.printf "skipped %d unreadable file(s)\n" (List.length failed);
      let audit = R.audit repo in
      Format.printf "%a@." R.pp_audit audit;
      if correct_ && audit.R.unsound_views > 0 then begin
        let repo', repaired = R.correct_all C.Strong repo in
        match R.save_dir dir repo' with
        | Ok () ->
          Printf.printf "corrected and rewrote %d view(s)\n" repaired;
          `Ok ()
        | Error e -> fail "%a" R.pp_io_error e
      end
      else `Ok ()
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Audit a directory of MoML workflows for unsound views.")
    Term.(ret (const run $ dir_arg $ correct_flag $ keep_going_flag))

(* --- query --- *)

let query_cmd =
  let expr_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Query expression, e.g. \"ancestors('task') - unsound\".")
  in
  let run file expr =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      (match Wolves_query.Query.eval_names view expr with
       | Error e -> fail "%a" Wolves_query.Query.pp_error e
       | Ok names ->
         List.iter print_endline names;
         Printf.printf "(%d tasks)\n" (List.length names);
         `Ok ())
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a provenance query (set algebra over tasks: ancestors, \
          descendants, producers, consumers, composites, unsound, sources, \
          sinks, &, |, -).")
    Term.(ret (const run $ file_arg $ expr_arg))

(* --- simulate --- *)

let simulate_cmd =
  let runs_arg =
    Arg.(value & opt int 20 & info [ "runs" ] ~docv:"N" ~doc:"Number of runs.")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W"
           ~doc:"Simulated parallel workers.")
  in
  let fail_arg =
    Arg.(value & opt float 0.05 & info [ "failure-rate" ] ~docv:"P"
           ~doc:"Per-task crash probability.")
  in
  let save_arg =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"OUT.csv"
           ~doc:"Persist the recorded runs as CSV.")
  in
  let retries_arg =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts granted to a crashed task.")
  in
  let backoff_arg =
    Arg.(value & opt float 1.0 & info [ "backoff" ] ~docv:"F"
           ~doc:"Base retry delay in simulated seconds (doubles per attempt, \
                 jittered).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"F"
           ~doc:"Per-task timeout in simulated seconds; longer tasks end \
                 $(b,timed out).")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"TRACE.csv"
           ~doc:"Resume from a checkpoint written by $(b,--save-trace): \
                 reuse every completed output and re-execute only the failed \
                 frontier and its descendants (a single run; $(b,--runs) is \
                 ignored). With $(b,--checkpoint-store) this is a record \
                 key, not a file path.")
  in
  let save_trace_arg =
    Arg.(value & opt (some string) None & info [ "save-trace" ] ~docv:"OUT.csv"
           ~doc:"Write the last run's trace as a resumable checkpoint. With \
                 $(b,--checkpoint-store) this is a record key, not a file \
                 path.")
  in
  let checkpoint_store_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint-store" ]
           ~docv:"DIR"
           ~doc:"Keep checkpoints in the crash-safe record store at this \
                 directory instead of bare CSV files: \
                 $(b,--save-trace)/$(b,--resume) then name records in the \
                 store (appended with checksums, recovered after crashes), \
                 not files.")
  in
  let run file runs workers failure_rate retries backoff timeout resume
      save_trace checkpoint_store save metrics trace =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let spec = View.spec view in
      let module Engine = Wolves_engine.Engine in
      let module Store = Wolves_provenance.Store in
      let duration = Engine.durations_from_attrs spec in
      let config seed =
        { Engine.default_config with
          Engine.workers;
          failure_rate;
          seed;
          duration;
          policy = Engine.Critical_path_first;
          retries;
          backoff;
          timeout }
      in
      let fault_summary traces =
        let count f =
          List.fold_left
            (fun acc trace ->
              acc
              + List.length (List.filter f trace.Engine.events))
            0 traces
        in
        let crashed e = e.Engine.outcome = Engine.Crashed in
        let timed_out e = e.Engine.outcome = Engine.Timed_out in
        let final_crashes =
          List.fold_left
            (fun acc trace ->
              acc
              + List.length
                  (List.filter
                     (fun t -> Engine.outcome_of trace t = Engine.Crashed)
                     (Spec.tasks spec)))
            0 traces
        in
        Printf.printf
          "faults: %d crashed attempts (%d unrecovered), %d timeouts\n"
          (count crashed) final_crashes (count timed_out)
      in
      let save_last_trace trace =
        match save_trace with
        | None -> Ok ()
        | Some path ->
          let saved, where =
            match checkpoint_store with
            | Some dir ->
              ( Engine.save_trace_store dir ~id:path trace,
                Printf.sprintf "record %S in store %s" path dir )
            | None -> (Engine.save_trace path trace, path)
          in
          (match saved with
           | Ok () ->
             Printf.printf "checkpointed trace to %s\n" where;
             Ok ()
           | Error msg -> Error msg)
      in
      let load_checkpoint path =
        match checkpoint_store with
        | Some dir -> Engine.load_trace_store spec dir ~id:path
        | None -> Engine.load_trace spec path
      in
      (match
         try
           Engine.validate_config (config 0);
           None
         with Invalid_argument msg -> Some msg
       with
       | Some msg -> fail "%s" msg
       | None ->
      match resume with
       | Some trace_file ->
         (match
            with_observability metrics trace (fun () ->
                match load_checkpoint trace_file with
                | Error msg -> Error msg
                | Ok { Engine.trace = prior; dropped_row } ->
                  let resumed = Engine.resume ~config:(config 1) prior in
                  Ok (prior, dropped_row, resumed))
          with
          | Error msg -> fail "%s: %s" trace_file msg
          | Ok (prior, dropped_row, resumed) ->
            (* stderr: stdout belongs to the command's own output, and
               --json consumers parse it *)
            (match dropped_row with
             | Some row ->
               Printf.eprintf
                 "warning: dropped torn checkpoint tail %S (crash during \
                  checkpoint write)\n"
                 row
             | None -> ());
            let n = Spec.n_tasks spec in
            let reused = List.length (Engine.reused_tasks resumed) in
            let executed = List.length (Engine.executed_tasks resumed) in
            Printf.printf
              "resumed from %s: reused %d/%d outputs, re-executed %d \
               (%.0f%% of tasks)\n"
              trace_file reused n executed
              (100.0 *. float_of_int executed /. float_of_int n);
            let full_work = Engine.total_work (config 1) spec in
            Printf.printf
              "work: %.2f of %.2f simulated seconds (saved %.0f%%); \
               makespan %.2f (prior attempt: %.2f)\n"
              resumed.Engine.busy_time full_work
              (100.0 *. (1.0 -. (resumed.Engine.busy_time /. full_work)))
              resumed.Engine.makespan prior.Engine.makespan;
            fault_summary [ resumed ];
            (match save_last_trace resumed with
             | Ok () -> `Ok ()
             | Error msg -> fail "%s" msg))
       | None ->
         let store = Store.create spec in
         let makespans = ref [] in
         let last_trace = ref None in
         with_observability metrics trace (fun () ->
             for seed = 1 to runs do
               let trace = Engine.run ~config:(config seed) spec in
               last_trace := Some trace;
               makespans := trace.Engine.makespan :: !makespans;
               match Store.record_run store (Engine.statuses trace) with
               | Ok _ -> ()
               | Error msg -> failwith msg
             done);
         let mean =
           List.fold_left ( +. ) 0.0 !makespans /. float_of_int runs
         in
         Printf.printf "%d runs on %d workers, failure rate %.2f\n" runs
           workers failure_rate;
         if retries > 0 || timeout <> None then
           Printf.printf "fault tolerance: %d retries, backoff %.2f%s\n"
             retries backoff
             (match timeout with
              | Some cap -> Printf.sprintf ", timeout %.2f" cap
              | None -> "");
         let base = { Engine.default_config with Engine.duration } in
         Printf.printf
           "mean makespan %.2f (critical path %.2f, total work %.2f)\n" mean
           (Engine.critical_path_length base spec)
           (Engine.total_work base spec);
         (match !last_trace with
          | Some t -> fault_summary [ t ]
          | None -> ());
         print_endline "per-task success rates:";
         List.iter
           (fun t ->
             Printf.printf "  %-40s %.0f%%\n" (Spec.task_name spec t)
               (100.0 *. Store.success_rate store t))
           (Spec.tasks spec);
         (match !last_trace with
          | Some t ->
            (match save_last_trace t with
             | Ok () -> ()
             | Error msg -> failwith msg)
          | None -> ());
         (match save with
          | None -> `Ok ()
          | Some path ->
            (match Store.save_csv store path with
             | Ok () ->
               Printf.printf "saved runs to %s\n" path;
               `Ok ()
             | Error msg -> fail "%s" msg)))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Execute the workflow repeatedly on the simulation engine, feed the \
          provenance store, and report makespan and per-task success rates. \
          Supports fault tolerance: $(b,--retries)/$(b,--backoff) for crash \
          recovery, $(b,--timeout) for runaway tasks, and \
          $(b,--save-trace)/$(b,--resume) for checkpoint/resume.")
    Term.(ret (const run $ file_arg $ runs_arg $ workers_arg $ fail_arg
               $ retries_arg $ backoff_arg $ timeout_arg $ resume_arg
               $ save_trace_arg $ checkpoint_store_arg $ save_arg
               $ metrics_arg $ trace_arg))

(* --- diagnose --- *)

let diagnose_cmd =
  let run file =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let spec = View.spec view in
      let report = S.validate view in
      if report.S.unsound = [] then begin
        print_endline "view is sound; nothing to diagnose";
        `Ok ()
      end
      else begin
        List.iter
          (fun (c, witnesses) ->
            Printf.printf "composite %S is unsound (%d violating pairs)\n"
              (View.composite_name view c)
              witnesses;
            let members = View.members view c in
            let set =
              Wolves_graph.Bitset.of_list (Spec.n_tasks spec) members
            in
            (match S.classify_unsound spec set with
             | Some kind ->
               Format.printf "  pattern: %a@." S.pp_unsoundness_kind kind
             | None -> ());
            match S.minimal_unsound_core spec set with
            | None -> ()
            | Some core ->
              Printf.printf "  minimal unsound core (%d of %d tasks): {%s}\n"
                (Wolves_graph.Bitset.cardinal core)
                (List.length members)
                (String.concat ", "
                   (List.map (Spec.task_name spec)
                      (Wolves_graph.Bitset.elements core)));
              Printf.printf
                "  every other member can stay; splitting these apart (or \
                 absorbing their suppliers/consumers) restores soundness\n")
          report.S.unsound;
        `Ok ()
      end
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Explain unsound composites: the minimal subset of tasks that is \
          still unsound (removing any one of them restores soundness).")
    Term.(ret (const run $ file_arg))

(* --- resolve --- *)

let resolve_cmd =
  let run file output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let resolved, decisions = C.resolve_auto view in
      if decisions = [] then print_endline "view already sound"
      else
        List.iter
          (fun d -> Format.printf "%a@." C.pp_decision d)
          decisions;
      print_string (Render.view_summary resolved);
      Option.iter (fun path -> write_file path (serialize_view path resolved)) output;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "resolve"
       ~doc:
         "Resolve every unsound composite by whichever of splitting or \
          merging is cheaper (mixed strategy; the paper's open problem).")
    Term.(ret (const run $ file_arg $ output_arg))

(* --- report --- *)

let report_cmd =
  let run file output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let spec = View.spec view in
      let buf = Buffer.create 4096 in
      let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      add "# WOLVES report: %s\n\n" (Spec.name spec);
      add "%d tasks, %d dependencies, %d composites (%.1fx compression).\n\n"
        (Spec.n_tasks spec) (Spec.n_dependencies spec)
        (View.n_composites view) (View.compression view);
      (* validation *)
      let report = S.validate view in
      add "## Validation\n\n";
      if report.S.unsound = [] then add "The view is **sound**.\n\n"
      else begin
        add "The view is **UNSOUND**: %d of %d composites.\n\n"
          (List.length report.S.unsound)
          (View.n_composites view);
        List.iter
          (fun (c, witnesses) ->
            add "- `%s`: %d missing paths" (View.composite_name view c)
              witnesses;
            let members = View.members view c in
            let set = Wolves_graph.Bitset.of_list (Spec.n_tasks spec) members in
            (match S.minimal_unsound_core spec set with
             | Some core ->
               add " (minimal core: %s)"
                 (String.concat ", "
                    (List.map (Spec.task_name spec)
                       (Wolves_graph.Bitset.elements core)))
             | None -> ());
            add "\n")
          report.S.unsound;
        add "\n"
      end;
      (* provenance damage *)
      let stats = Wolves_provenance.Provenance.evaluate_view_items view in
      add "## Provenance impact\n\n";
      add
        "Item-granularity audit: %d queries, %d wrong answers (%.1f%%), 0 \
         missed dependencies.\n\n"
        stats.Wolves_provenance.Provenance.queries
        stats.Wolves_provenance.Provenance.spurious
        (100.0
        *. Wolves_provenance.Provenance.spurious_rate stats);
      (* correction *)
      if report.S.unsound <> [] then begin
        let corrected, outcomes = C.correct C.Strong view in
        add "## Correction (strong local optimality)\n\n";
        List.iter
          (fun (c, o) ->
            add "- `%s` split into %d sound parts%s\n"
              (View.composite_name view c)
              (List.length o.C.parts)
              (if o.C.certified_strong then " (certified)" else ""))
          outcomes;
        let stats' =
          Wolves_provenance.Provenance.evaluate_view_items corrected
        in
        add
          "\nAfter correction: %d composites, %d wrong provenance answers.\n\n"
          (View.n_composites corrected)
          stats'.Wolves_provenance.Provenance.spurious
      end;
      (* interface catalog *)
      add "%s" (Wolves_core.Interface.to_markdown view);
      let text = Buffer.contents buf in
      (match output with
       | Some path ->
         write_file path text;
         Printf.printf "wrote %s\n" path
       | None -> print_string text);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Produce a markdown report: validation, minimal unsound cores, \
          provenance impact, correction, and the composite interface catalog.")
    Term.(ret (const run $ file_arg $ output_arg))

(* --- edit --- *)

let edit_cmd =
  let script_arg =
    Arg.(value & opt (some file) None & info [ "script" ] ~docv:"SCRIPT"
           ~doc:"Run editor commands from a file instead of stdin.")
  in
  let run file script output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let module Editor = Wolves_cli.Editor in
      let editor = Editor.create view in
      (match script with
       | Some path ->
         let lines =
           In_channel.with_open_text path In_channel.input_lines
         in
         List.iter print_endline (Editor.run_script editor lines)
       | None ->
         print_endline
           "WOLVES view designer; 'help' lists commands, 'quit' leaves.";
         let continue_ = ref true in
         while !continue_ do
           print_string "wolves> ";
           (match In_channel.input_line stdin with
            | None -> continue_ := false
            | Some line ->
              (match Editor.execute editor line with
               | `Ok "" -> ()
               | `Ok msg -> print_endline msg
               | `Error msg -> Printf.printf "error: %s\n" msg
               | `Quit -> continue_ := false))
         done);
      let final =
        Wolves_core.Session.current_view (Editor.session editor)
      in
      Option.iter (fun path -> write_file path (serialize_view path final)) output;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "edit"
       ~doc:
         "Design a view interactively (the demo GUI as a REPL): create/move/\
          dissolve composites with instant validation, correct, diagnose, \
          undo; -o saves the result.")
    Term.(ret (const run $ file_arg $ script_arg $ output_arg))

(* --- evolve --- *)

let evolve_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD"
           ~doc:"Old workflow+view document.")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"
           ~doc:"New workflow document (its view is ignored).")
  in
  let run old_file new_file output =
    match (load_view old_file, load_view new_file) with
    | Error msg, _ | _, Error msg -> fail "%s" msg
    | Ok old_view, Ok new_view ->
      let module Ev = Wolves_core.Evolution in
      let old_spec = View.spec old_view in
      let new_spec = View.spec new_view in
      let d = Ev.diff old_spec new_spec in
      Format.printf "%a@." Ev.pp_diff d;
      if Ev.is_empty d then print_endline "specifications are identical"
      else begin
        let report = Ev.impact old_view new_spec in
        Format.printf "%a@." Ev.pp_impact report;
        print_string (Render.view_summary report.Ev.new_view);
        Option.iter
          (fun path -> write_file path (serialize_view path report.Ev.new_view))
          output
      end;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Diff two workflow versions, migrate the old view onto the new \
          specification, and report which composites broke or were repaired.")
    Term.(ret (const run $ old_arg $ new_arg $ output_arg))

(* --- suggest --- *)

let suggest_cmd =
  let method_arg =
    Arg.(value & opt (enum [ ("greedy", `Greedy); ("banding", `Banding);
                             ("regions", `Regions) ])
           `Banding
         & info [ "method" ] ~docv:"METHOD"
             ~doc:"greedy | banding (optimal contiguous) | regions (fork-join).")
  in
  let size_arg =
    Arg.(value & opt int 8 & info [ "max-size" ] ~docv:"K"
           ~doc:"Maximum composite size (greedy/banding).")
  in
  let run file method_ max_size output =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      let spec = View.spec view in
      let module Suggest = Wolves_core.Suggest in
      let groups =
        match method_ with
        | `Greedy -> Suggest.greedy_sound_groups spec ~max_size
        | `Banding -> Suggest.optimal_sound_banding spec ~max_size
        | `Regions -> Suggest.fork_join_regions spec
      in
      let suggested = Suggest.view_of_groups spec groups in
      Printf.printf
        "suggested a sound view with %d composites (%.1fx compression)\n"
        (View.n_composites suggested)
        (View.compression suggested);
      print_string (Render.view_summary suggested);
      Option.iter (fun path -> write_file path (serialize_view path suggested)) output;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:
         "Construct a sound view automatically (greedy sound groups, optimal \
          contiguous banding, or fork-join region collapse).")
    Term.(ret (const run $ file_arg $ method_arg $ size_arg $ output_arg))

(* --- stats --- *)

(* --- lint --- *)

module Lint = Wolves_lint.Lint
module Lint_fix = Wolves_lint.Fix
module Lint_diag = Wolves_lint.Diagnostic
module Sarif = Wolves_lint.Sarif

let lint_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Workflow documents to lint ($(b,.wf) DSL or MoML).")
  in
  let rules_arg =
    Arg.(value & opt (some (list string)) None & info [ "rules" ]
           ~docv:"ID,..." ~doc:"Only run these rules (comma-separated ids).")
  in
  let disable_arg =
    Arg.(value & opt (list string) [] & info [ "disable" ] ~docv:"ID,..."
           ~doc:"Skip these rules (comma-separated ids).")
  in
  let threshold_arg =
    let sev_conv =
      Arg.conv
        ( (fun s ->
            match Lint_diag.severity_of_string s with
            | Some s -> Ok s
            | None -> Error (`Msg (Printf.sprintf "unknown severity %S" s))),
          fun ppf s ->
            Format.pp_print_string ppf (Lint_diag.severity_to_string s) )
    in
    Arg.(value & opt sev_conv Lint_diag.Hint & info [ "severity-threshold" ]
           ~docv:"SEVERITY"
           ~doc:"Report only diagnostics at least this severe: $(b,hint), \
                 $(b,warning) or $(b,error).")
  in
  let fan_arg =
    Arg.(value & opt int 8 & info [ "fan-threshold" ] ~docv:"N"
           ~doc:"Degree at which $(b,spec/fan-bottleneck) fires.")
  in
  let fix_flag =
    Arg.(value & flag & info [ "fix" ]
           ~doc:"Apply every machine-applicable fix in place (redundant \
                 edges dropped, unsound composites split, combinable \
                 composites merged) and report what remains.")
  in
  let sarif_arg =
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"OUT.sarif"
           ~doc:"Also write a SARIF 2.1.0 report to this file.")
  in
  let run files rules disabled threshold fan_threshold fix sarif json color
      metrics trace =
    let config = { Lint.rules; disabled; threshold; fan_threshold } in
    match Lint.validate_config config with
    | Error msg -> fail "%s" msg
    | Ok () ->
      let lint_one file =
        if fix then
          match Lint_fix.fix_file ~config file with
          | Error msg -> Error msg
          | Ok applied ->
            List.iter
              (fun a ->
                Printf.printf "%s: %s\n" file
                  (Format.asprintf "%a" Lint_fix.pp_applied a))
              applied;
            Lint.run_file ~config file
        else Lint.run_file ~config file
      in
      let result =
        with_observability metrics trace (fun () ->
            List.fold_left
              (fun acc file ->
                match acc with
                | Error _ as e -> e
                | Ok diagnostics ->
                  Result.map
                    (fun ds -> diagnostics @ ds)
                    (lint_one file))
              (Ok []) files)
      in
      (match result with
       | Error msg -> fail "%s" msg
       | Ok diagnostics ->
         Option.iter
           (fun path -> write_file path (Sarif.report diagnostics))
           sarif;
         if json then
           print_endline (Json.to_string ~pretty:true (Lint.to_json diagnostics))
         else print_string (Lint.to_terminal ~color diagnostics);
         if Lint.errors diagnostics > 0 then exit 1 else `Ok ())
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse workflow documents: spec-level structure \
          (orphans, redundant edges, disconnected pipelines, fan \
          bottlenecks), view-level soundness (unsound composites with \
          minimal witnesses, degenerate/monolithic views, combinable \
          composites) and $(b,.wf)-source style. Exits 1 when any \
          error-severity diagnostic remains; $(b,--fix) applies \
          machine-applicable fixes in place.")
    Term.(ret (const run $ files_arg $ rules_arg $ disable_arg
               $ threshold_arg $ fan_arg $ fix_flag $ sarif_arg $ json_arg
               $ color_arg $ metrics_arg $ trace_arg))

(* --- analyze --- *)

module Flow = Wolves_analysis.Flow
module Annot = Wolves_analysis.Annot

(* The static dependency analyses (fine-grained flow over [deps]
   annotations) surfaced as a focused command: the annotation rules of the
   lint engine, plus annotation inference. *)
let analyze_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Workflow documents to analyse ($(b,.wf) DSL or MoML).")
  in
  let infer_flag =
    Arg.(value & flag & info [ "infer" ]
           ~doc:"Infer the minimal dependency annotations for every output \
                 lacking an entry and print them as paste-ready $(b,deps) \
                 blocks.")
  in
  let sarif_arg =
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"OUT.sarif"
           ~doc:"Also write a SARIF 2.1.0 report of the diagnostics to this \
                 file.")
  in
  (* The DSL only admits quoted names; escape the two characters its
     lexer understands. *)
  let quote name =
    let buf = Buffer.create (String.length name + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      name;
    Buffer.add_char buf '"';
    Buffer.contents buf
  in
  let deps_block spec { Annot.inf_task; inf_entries } =
    Printf.sprintf "  deps %s {%s }"
      (quote (Spec.task_name spec inf_task))
      (String.concat ""
         (List.map
            (fun (out, ins) ->
              Printf.sprintf " %s <-%s;"
                (quote (Spec.task_name spec out))
                (String.concat ""
                   (List.map
                      (fun i -> " " ^ quote (Spec.task_name spec i))
                      ins)))
            inf_entries))
  in
  let load file =
    if Filename.check_suffix file ".wf" then
      match Wolves_lang.Wfdsl.load_with_source file with
      | Ok (_, view, source) -> Ok (view, Some source)
      | Error e -> Error (Format.asprintf "%a" Wolves_lang.Wfdsl.pp_error e)
    else
      match Moml.load file with
      | Ok (_, view) -> Ok (view, None)
      | Error e -> Error (Format.asprintf "%s: %a" file Moml.pp_error e)
  in
  let analysis_rules =
    [ "spec/annotation-inconsistent"; "spec/annotation-incomplete";
      "spec/dead-data"; "view/hidden-dependency" ]
  in
  let run files infer sarif json color metrics trace domains =
    with_domains domains @@ fun () ->
    let config =
      { Lint.default_config with Lint.rules = Some analysis_rules }
    in
    let analyze_one file =
      Result.map
        (fun (view, source) ->
          let spec = View.spec view in
          let diagnostics = Lint.run ~config ~file ?source view in
          let inferred =
            if infer then Some (Annot.infer spec) else None
          in
          (file, spec, diagnostics, inferred))
        (load file)
    in
    let result =
      with_observability metrics trace (fun () ->
          List.fold_left
            (fun acc file ->
              match acc with
              | Error _ as e -> e
              | Ok rows -> Result.map (fun r -> r :: rows) (analyze_one file))
            (Ok []) files)
    in
    match Result.map List.rev result with
    | Error msg -> fail "%s" msg
    | Ok rows ->
      let diagnostics = List.concat_map (fun (_, _, ds, _) -> ds) rows in
      Option.iter
        (fun path -> write_file path (Sarif.report diagnostics))
        sarif;
      if json then begin
        let row_json (file, spec, ds, inferred) =
          Json.Obj
            (List.concat
               [ [ ("file", Json.String file);
                   ("diagnostics", Lint.to_json ds) ];
                 (match inferred with
                  | None -> []
                  | Some result ->
                    [ ( "inferred",
                        Json.List
                          (List.map
                             (fun i ->
                               Json.Obj
                                 [ ( "task",
                                     Json.String
                                       (Spec.task_name spec i.Annot.inf_task)
                                   );
                                   ( "entries",
                                     Json.List
                                       (List.map
                                          (fun (o, ins) ->
                                            Json.Obj
                                              [ ( "output",
                                                  Json.String
                                                    (Spec.task_name spec o) );
                                                ( "inputs",
                                                  Json.List
                                                    (List.map
                                                       (fun p ->
                                                         Json.String
                                                           (Spec.task_name
                                                              spec p))
                                                       ins) ) ])
                                          i.Annot.inf_entries) ) ])
                             result.Annot.inferred) );
                      ( "inference_iterations",
                        Json.Int result.Annot.iterations ) ]) ])
        in
        print_endline
          (Json.to_string ~pretty:true (Json.List (List.map row_json rows)))
      end
      else begin
        List.iter
          (fun (file, spec, ds, inferred) ->
            if ds <> [] then print_string (Lint.to_terminal ~color ds);
            match inferred with
            | None -> ()
            | Some result ->
              if result.Annot.inferred = [] then
                Printf.printf
                  "%s: every output already has a dependency entry\n" file
              else begin
                Printf.printf "%s: inferred annotations (paste into the \
                               workflow block):\n"
                  file;
                List.iter
                  (fun i -> print_endline (deps_block spec i))
                  result.Annot.inferred
              end)
          rows
      end;
      if Lint.errors diagnostics > 0 then exit 1 else `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static dependency analysis over $(b,deps) annotations: validate \
          them (inconsistent or incomplete entries), detect dead-data \
          edges and hidden dependencies concealed by composites, and \
          infer minimal missing annotations ($(b,--infer)). Exits 1 when \
          any error-severity diagnostic remains.")
    Term.(ret (const run $ files_arg $ infer_flag $ sarif_arg
               $ json_arg $ color_arg $ metrics_arg $ trace_arg
               $ domains_arg))

let stats_cmd =
  let prom_flag =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Print the registry as a Prometheus text-format exposition \
                 page (the same renderer behind the server's $(b,METRICS) \
                 verb) instead of tables.")
  in
  let run file criterion json prom metrics =
    match load_view file with
    | Error msg -> fail "%s" msg
    | Ok view ->
      Metrics.reset ();
      let (report, pstats), elapsed =
        Metrics.enabled (fun () ->
            Render.time (fun () ->
                let report = S.validate view in
                if report.S.unsound <> [] then ignore (C.correct criterion view);
                (report, P.evaluate_view view)))
      in
      let snap = Metrics.snapshot () in
      Option.iter
        (fun path ->
          try write_file path (Metrics.snapshot_to_json snap)
          with Sys_error msg -> report_io_failure "metrics dump" msg)
        metrics;
      if prom then
        print_string (Wolves_obs.Prom.render snap)
      else if json then
        (* The summary object is assembled with the CLI's Json type; the
           registry dump is already JSON text, so splice it in verbatim. *)
        Printf.printf "{\"summary\":%s,\"metrics\":%s}\n"
          (Json.to_string ~pretty:false
             (Json.Obj
                [ ("workflow", Json.String (Spec.name (View.spec view)));
                  ("sound", Json.Bool (report.S.unsound = []));
                  ("wall_time_s", Json.Float elapsed);
                  ("provenance_queries", Json.Int pstats.P.queries);
                  ("spurious_answers", Json.Int pstats.P.spurious) ]))
          (Metrics.snapshot_to_json snap)
      else begin
        Printf.printf
          "instrumented validate%s + provenance audit: %.4fs wall time\n"
          (if report.S.unsound = [] then ""
           else
             Format.asprintf " + correct (%a)" C.pp_criterion criterion)
          elapsed;
        if snap.Metrics.counters <> [] then begin
          print_endline "counters:";
          print_endline
            (Table.render ~header:[ "name"; "value" ]
               (List.map
                  (fun (name, v) -> [ name; string_of_int v ])
                  snap.Metrics.counters))
        end;
        if snap.Metrics.gauges <> [] then begin
          print_endline "gauges:";
          print_endline
            (Table.render ~header:[ "name"; "value" ]
               (List.map
                  (fun (name, v) -> [ name; Printf.sprintf "%g" v ])
                  snap.Metrics.gauges))
        end;
        let live_timers =
          List.filter (fun (_, st) -> st.Metrics.count > 0) snap.Metrics.timers
        in
        if live_timers <> [] then begin
          print_endline "timers:";
          print_endline
            (Table.render
               ~header:[ "name"; "count"; "total"; "mean"; "max" ]
               (List.map
                  (fun (name, st) ->
                    [ name;
                      string_of_int st.Metrics.count;
                      Printf.sprintf "%.6fs" st.Metrics.sum;
                      Printf.sprintf "%.6fs"
                        (st.Metrics.sum /. float_of_int st.Metrics.count);
                      Printf.sprintf "%.6fs" st.Metrics.max ])
                  live_timers))
        end
      end;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented workload (validate, correct when unsound, \
          whole-view provenance audit) and report the Wolves_obs registry: \
          soundness checks vs pruning probes, cache hit rates, timer \
          histograms. $(b,--metrics) additionally dumps the raw registry as \
          JSON; $(b,--prom) prints Prometheus text exposition instead.")
    Term.(ret (const run $ file_arg $ criterion_arg $ json_arg $ prom_flag
               $ metrics_arg))

(* --- profile --- *)

let profile_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
           ~doc:"Trace file written by $(b,--trace): Chrome trace-event JSON \
                 ($(b,.json)) or JSONL ($(b,.jsonl)).")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top"; "k" ] ~docv:"K"
           ~doc:"Rows in the top-spans tables.")
  in
  let span_table rows =
    Table.render
      ~header:[ "span path"; "count"; "total"; "self"; "max" ]
      (List.map
         (fun r ->
           [ r.Trace_profile.path;
             string_of_int r.Trace_profile.count;
             Printf.sprintf "%.6fs" r.Trace_profile.total_s;
             Printf.sprintf "%.6fs" r.Trace_profile.self_s;
             Printf.sprintf "%.6fs" r.Trace_profile.max_s ])
         rows)
  in
  let run file k =
    if k < 1 then fail "--top must be at least 1"
    else
      match Trace_profile.load file with
      | Error msg -> fail "%s" msg
      | Ok events ->
        let p = Trace_profile.of_events events in
        Printf.printf "%s: %d events, %.6fs wall time" file
          p.Trace_profile.events p.Trace_profile.wall_s;
        if p.Trace_profile.orphans > 0 then
          Printf.printf
            ", %d orphaned end events (begins evicted by the ring)"
            p.Trace_profile.orphans;
        print_newline ();
        (match Trace_profile.phases p with
         | [] -> print_endline "no completed spans in the trace"
         | phase_rows ->
           print_endline "phases (top-level spans):";
           print_endline (span_table phase_rows);
           Printf.printf "top %d spans by self time:\n" k;
           print_endline (span_table (Trace_profile.top_self ~k p));
           Printf.printf "top %d spans by total time:\n" k;
           print_endline (span_table (Trace_profile.top_total ~k p)));
        if p.Trace_profile.instants <> [] then begin
          print_endline "instant events:";
          print_endline
            (Table.render ~header:[ "name"; "count" ]
               (List.map
                  (fun (name, n) -> [ name; string_of_int n ])
                  p.Trace_profile.instants))
        end;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Summarise a recorded trace: per-phase breakdown, the top spans by \
          self and total time, and instant-event counts. Self time is a \
          span's duration minus its directly nested spans, so the table \
          points at the code actually burning the wall clock.")
    Term.(ret (const run $ trace_file_arg $ top_arg))

(* --- store --- *)

let store_cmd =
  let module St = Wolves_storage.Store in
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Store directory.")
  in
  let fail_store e = fail "%a" St.pp_error e in
  let init_cmd =
    let shards_arg =
      Arg.(value & opt int St.default_config.St.shards
           & info [ "shards" ] ~docv:"N"
               ~doc:"Spread segment files over N shards (1-256).")
    in
    let segment_bytes_arg =
      Arg.(value & opt int St.default_config.St.segment_bytes
           & info [ "segment-bytes" ] ~docv:"B"
               ~doc:"Roll to a fresh segment file past B bytes.")
    in
    let run dir shards segment_bytes =
      match
        St.init ~config:{ St.shards; segment_bytes } dir
      with
      | exception Invalid_argument msg -> fail "%s" msg
      | Error e -> fail_store e
      | Ok store ->
        (match St.close store with
         | Ok () ->
           Printf.printf "initialised empty store at %s (%d shards)\n" dir
             shards;
           `Ok ()
         | Error e -> fail_store e)
    in
    Cmd.v
      (Cmd.info "init" ~doc:"Create an empty store.")
      Term.(ret (const run $ dir_arg $ shards_arg $ segment_bytes_arg))
  in
  let ingest_cmd =
    let from_arg =
      Arg.(value & opt (some dir) None & info [ "from" ] ~docv:"MOMLDIR"
             ~doc:"Ingest every .moml workflow of this directory.")
    in
    let synthesize_arg =
      Arg.(value & flag & info [ "synthesize" ]
             ~doc:"Ingest a synthesized corpus (all workflow families x \
                   sizes x view policies) instead of reading files.")
    in
    let seed_arg =
      Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
             ~doc:"PRNG seed for $(b,--synthesize).")
    in
    let per_cell_arg =
      Arg.(value & opt int 2 & info [ "per-cell" ] ~docv:"N"
             ~doc:"Synthesized workflows per family x size x policy cell.")
    in
    let sizes_arg =
      Arg.(value & opt (list int) [ 12; 24 ] & info [ "sizes" ] ~docv:"N,..."
             ~doc:"Workflow sizes (task counts) for $(b,--synthesize).")
    in
    let run dir from synthesize seed per_cell sizes =
      let repo =
        match (from, synthesize) with
        | Some _, true -> Error "--from and --synthesize are exclusive"
        | None, false -> Error "need --from DIR or --synthesize"
        | Some moml_dir, false ->
          Result.map_error
            (Format.asprintf "%a" R.pp_io_error)
            (R.load_dir moml_dir)
        | None, true -> Ok (R.synthesize ~seed ~per_cell ~sizes ())
      in
      match repo with
      | Error msg -> fail "%s" msg
      | Ok repo ->
        (match R.save_store dir repo with
         | Error e -> fail "%a" R.pp_io_error e
         | Ok () ->
           Printf.printf "ingested %d workflow(s) into %s\n" (R.size repo) dir;
           `Ok ())
    in
    Cmd.v
      (Cmd.info "ingest"
         ~doc:
           "Append workflows to the store (created if absent), either from \
            a directory of MoML files or synthesized. Re-ingesting an id \
            supersedes its earlier record.")
      Term.(ret (const run $ dir_arg $ from_arg $ synthesize_arg $ seed_arg
                 $ per_cell_arg $ sizes_arg))
  in
  let verify_cmd =
    let run dir json =
      match St.verify dir with
      | Error e -> fail_store e
      | Ok report ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ("segments", Json.Int report.St.v_segments);
                    ("records", Json.Int report.St.v_records);
                    ("bytes", Json.Int report.St.v_bytes);
                    ( "issues",
                      Json.List
                        (List.map
                           (fun (i : St.issue) ->
                             Json.Obj
                               [ ("file", Json.String i.St.file);
                                 ("offset", Json.Int i.St.offset);
                                 ("torn", Json.Bool i.St.torn);
                                 ("reason", Json.String i.St.reason) ])
                           report.St.issues) ) ]))
        else begin
          Printf.printf "%d segment(s), %d record(s), %d bytes\n"
            report.St.v_segments report.St.v_records report.St.v_bytes;
          List.iter
            (fun (i : St.issue) ->
              Printf.printf "%s: %s at offset %d: %s\n"
                (if i.St.torn then "TORN" else "CORRUPT")
                i.St.file i.St.offset i.St.reason)
            report.St.issues
        end;
        if report.St.issues = [] then begin
          if not json then print_endline "store verifies clean";
          `Ok ()
        end
        else exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Read-only integrity scan: recompute every record checksum and \
            the catalog checksum. Exits 1 when any issue is found; nothing \
            is repaired (use $(b,recover)).")
      Term.(ret (const run $ dir_arg $ json_arg))
  in
  let recover_cmd =
    let run dir =
      match St.open_ dir with
      | Error e -> fail_store e
      | Ok (store, r) ->
        Printf.printf
          "scanned %d segment(s), recovered %d record(s)\n"
          r.St.segments_scanned r.St.records_recovered;
        List.iter
          (fun (file, kept, dropped) ->
            Printf.printf "truncated %s: kept %d byte(s), dropped %d\n" file
              kept dropped)
          r.St.truncations;
        List.iter
          (fun file -> Printf.printf "dropped segment %s\n" file)
          r.St.dropped_segments;
        List.iter
          (fun file -> Printf.printf "swept stale %s\n" file)
          r.St.swept_tmp;
        if r.St.manifest_rebuilt then
          print_endline "catalog was missing or corrupt: rebuilt from segments";
        if
          r.St.truncations = [] && r.St.dropped_segments = []
          && r.St.swept_tmp = []
          && not r.St.manifest_rebuilt
        then print_endline "store was already consistent";
        (match St.close store with
         | Ok () -> `Ok ()
         | Error e -> fail_store e)
    in
    Cmd.v
      (Cmd.info "recover"
         ~doc:
           "Open the store, running crash recovery: torn or corrupt tails \
            are truncated away, orphaned segments dropped, the catalog \
            rebuilt — the committed record prefix survives.")
      Term.(ret (const run $ dir_arg))
  in
  let stats_cmd =
    let run dir json =
      match St.open_ dir with
      | Error e -> fail_store e
      | Ok (store, _) ->
        let s = St.stats store in
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [ ("shards", Json.Int s.St.n_shards);
                    ("segments", Json.Int s.St.n_segments);
                    ("records", Json.Int s.St.n_records);
                    ("bytes", Json.Int s.St.n_bytes);
                    ("next_lsn", Json.Int s.St.next_lsn);
                    ( "per_shard",
                      Json.List
                        (List.map
                           (fun (shard, segs, recs, bytes) ->
                             Json.Obj
                               [ ("shard", Json.Int shard);
                                 ("segments", Json.Int segs);
                                 ("records", Json.Int recs);
                                 ("bytes", Json.Int bytes) ])
                           s.St.per_shard) ) ]))
        else begin
          Printf.printf
            "%d shard(s), %d segment(s), %d record(s), %d bytes, next lsn %d\n"
            s.St.n_shards s.St.n_segments s.St.n_records s.St.n_bytes
            s.St.next_lsn;
          List.iter
            (fun (shard, segs, recs, bytes) ->
              Printf.printf "  shard %3d: %d segment(s), %4d record(s), %8d bytes\n"
                shard segs recs bytes)
            s.St.per_shard
        end;
        (match St.close store with
         | Ok () -> `Ok ()
         | Error e -> fail_store e)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Per-shard segment, record and byte counts.")
      Term.(ret (const run $ dir_arg $ json_arg))
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "The crash-safe sharded provenance store: checksummed append-only \
          segments plus an atomically swapped catalog. Subcommands: \
          $(b,init), $(b,ingest), $(b,verify), $(b,recover), $(b,stats).")
    [ init_cmd; ingest_cmd; verify_cmd; recover_cmd; stats_cmd ]

(* --- serve / call --- *)

module Srv = Wolves_server.Server
module Svc = Wolves_server.Service
module Sclient = Wolves_server.Client
module Sproto = Wolves_server.Protocol

let socket_arg =
  Arg.(value & opt (some string) None & info [ "unix-socket" ] ~docv:"PATH"
         ~doc:"Serve (or call) over a Unix domain socket at PATH.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT"
         ~doc:"Serve (or call) over TCP on this port (0 picks a free one).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Bind/connect address for $(b,--port).")

let serve_cmd =
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Workflow documents to serve ($(b,.wf) or MoML); each is \
                 published under its basename without extension.")
  in
  let store_flag =
    Arg.(value & opt (some dir) None & info [ "store" ] ~docv:"DIR"
           ~doc:"Serve every workflow of this $(b,wolves store) directory.")
  in
  let synthesize_flag =
    Arg.(value & flag & info [ "synthesize" ]
           ~doc:"Serve a synthesized corpus (all families x sizes x view \
                 policies) instead of reading files.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed for $(b,--synthesize).")
  in
  let per_cell_arg =
    Arg.(value & opt int 1 & info [ "per-cell" ] ~docv:"N"
           ~doc:"Synthesized workflows per family x size x policy cell.")
  in
  let sizes_arg =
    Arg.(value & opt (list int) [ 12; 24 ] & info [ "sizes" ] ~docv:"N,..."
           ~doc:"Workflow sizes (task counts) for $(b,--synthesize).")
  in
  let workers_arg =
    Arg.(value & opt int Srv.default_config.Srv.workers
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue_arg =
    Arg.(value & opt int Srv.default_config.Srv.queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission queue bound; beyond it new connections are \
                   shed with $(b,OVERLOADED).")
  in
  let read_timeout_arg =
    Arg.(value & opt float Srv.default_config.Srv.read_timeout_s
         & info [ "read-timeout" ] ~docv:"S"
             ~doc:"Per-connection receive deadline in seconds (slow-loris \
                   defence).")
  in
  let write_timeout_arg =
    Arg.(value & opt float Srv.default_config.Srv.write_timeout_s
         & info [ "write-timeout" ] ~docv:"S"
             ~doc:"Per-connection send deadline in seconds.")
  in
  let max_request_arg =
    Arg.(value & opt int Srv.default_config.Srv.max_request_bytes
         & info [ "max-request-bytes" ] ~docv:"B"
             ~doc:"Longest accepted request line.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS"
           ~doc:"Default correction budget in milliseconds: bare \
                 $(b,CORRECT <id>) requests run \
                 $(b,Corrector.correct_with_deadline) under it (queue wait \
                 included), degrading optimal → strong → weak under load.")
  in
  let retry_after_arg =
    Arg.(value & opt int Srv.default_config.Srv.retry_after_ms
         & info [ "retry-after" ] ~docv:"MS"
             ~doc:"Retry-after hint carried by $(b,OVERLOADED) replies.")
  in
  let access_log_arg =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one structured JSONL record per request (id, verb, \
                 deadline, queue wait, handler time, bytes, outcome) to \
                 FILE; $(b,-) logs to stderr.")
  in
  let log_level_arg =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Minimum level written to the access log: debug, info, \
                 warn or error.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Log a $(b,slow_request) warning — with the request's span \
                 tree when it was sampled — for any request whose handler \
                 takes longer than MS milliseconds.")
  in
  let trace_sample_arg =
    Arg.(value & opt int 0 & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Keep every Nth request's spans in the trace ring, \
                 drainable live with the $(b,TRACE) verb. 0 disables \
                 sampling.")
  in
  let trace_perfetto_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-perfetto" ] ~docv:"FILE"
             ~doc:"On shutdown, export the sampled spans still in the ring \
                   as Chrome trace-event JSON (openable in Perfetto). \
                   Requires $(b,--trace-sample).")
  in
  let run files store synthesize seed per_cell sizes host port socket workers
      queue_depth read_timeout write_timeout max_request_bytes deadline
      retry_after access_log log_level slow_ms trace_sample trace_perfetto
      metrics =
    let corpus =
      match (store, synthesize, files) with
      | Some dir, false, [] -> Svc.of_store dir
      | None, true, [] -> (
          match R.synthesize ~seed ~per_cell ~sizes () with
          | repo -> Ok (Svc.of_repository repo)
          | exception Invalid_argument msg -> Error msg)
      | None, false, (_ :: _ as files) -> Svc.of_files files
      | None, false, [] ->
        Error "nothing to serve: give FILEs, --store DIR or --synthesize"
      | _ -> Error "FILEs, --store and --synthesize are mutually exclusive"
    in
    match corpus with
    | Error msg -> fail "%s" msg
    | Ok service ->
      let listen =
        match (socket, port) with
        | Some path, None -> Ok (Srv.Unix_socket path)
        | None, Some port -> Ok (Srv.Tcp (host, port))
        | None, None -> Error "need --port or --unix-socket"
        | Some _, Some _ -> Error "--port and --unix-socket are exclusive"
      in
      match listen with
      | Error msg -> fail "%s" msg
      | Ok listen ->
        let config =
          { Srv.default_config with
            Srv.workers;
            queue_depth;
            read_timeout_s = read_timeout;
            write_timeout_s = write_timeout;
            max_request_bytes;
            default_deadline_ms = deadline;
            retry_after_ms = retry_after;
            slow_threshold_s = Option.map (fun ms -> ms /. 1e3) slow_ms;
            trace_sample }
        in
        let module Olog = Wolves_obs.Log in
        match Olog.level_of_string (String.lowercase_ascii log_level) with
        | None -> fail "unknown --log-level %s" log_level
        | Some level ->
        if trace_perfetto <> None && trace_sample = 0 then
          fail "--trace-perfetto needs --trace-sample N"
        else
        let log_channel =
          (* opened before the server starts so a bad path fails fast *)
          match access_log with
          | None -> Ok None
          | Some "-" -> Ok (Some (stderr, false))
          | Some path -> (
            try
              Ok
                (Some
                   ( open_out_gen [ Open_append; Open_creat ] 0o644 path,
                     true ))
            with Sys_error msg -> Error msg)
        in
        match log_channel with
        | Error msg -> fail "--access-log: %s" msg
        | Ok log_channel ->
        (match log_channel with
        | Some (oc, _) -> Olog.set ~level (Some (Olog.channel_sink oc))
        | None -> ());
        let close_log () =
          Olog.set None;
          match log_channel with
          | Some (oc, close) -> if close then close_out_noerr oc
          | None -> ()
        in
        (* Handlers go in before the listener exists, so a signal that
           arrives as soon as the socket answers still drains. *)
        let signalled = Atomic.make false in
        List.iter
          (fun s ->
            try Sys.set_signal s
                  (Sys.Signal_handle (fun _ -> Atomic.set signalled true))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        with_metrics metrics (fun () ->
            match Srv.start ~config listen service with
            | exception Invalid_argument msg -> fail "%s" msg
            | Error msg -> fail "%s" msg
            | Ok server ->
              let where =
                match Srv.address server with
                | Some (Unix.ADDR_INET (a, p)) ->
                  Printf.sprintf "tcp %s:%d" (Unix.string_of_inet_addr a) p
                | Some (Unix.ADDR_UNIX p) -> Printf.sprintf "unix %s" p
                | None -> "?"
              in
              Printf.printf
                "serving %d workflow(s) on %s: %d worker domain(s), queue \
                 %d\n%!"
                (Svc.size service) where config.Srv.workers
                config.Srv.queue_depth;
              (* SIGINT/SIGTERM flip the flag; everything else — drain,
                 join, unlink, metrics flush — happens here, in signal-free
                 context. *)
              while not (Atomic.get signalled || Srv.stop_requested server) do
                try Unix.sleepf 0.2
                with Unix.Unix_error (Unix.EINTR, _, _) -> ()
              done;
              Srv.stop server;
              (* the ring survives stop; export what sampling retained *)
              Option.iter
                (fun path ->
                  try
                    Trace_export.write Trace_export.Chrome
                      (Srv.trace_events server)
                      path
                  with Sys_error msg ->
                    report_io_failure "perfetto trace" msg)
                trace_perfetto;
              close_log ();
              let s = Srv.stats server in
              Printf.printf
                "drained: %d connection(s), %d request(s), %d error(s), %d \
                 shed\n%!"
                s.Srv.connections s.Srv.requests s.Srv.errors s.Srv.shed;
              `Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running provenance query service: load a corpus once, pin \
          its reachability indexes, and answer \
          validate/correct/query/lint/analyze requests concurrently over a \
          line protocol (see docs/PROTOCOL.md). Bounded admission queue \
          with $(b,OVERLOADED) load-shedding, per-connection timeouts, \
          per-request deadlines that degrade correction tiers, graceful \
          drain on SIGINT/SIGTERM (exit 0). Observability: structured \
          access logs ($(b,--access-log)), Prometheus exposition (the \
          $(b,METRICS) verb, read by $(b,wolves top)), sampled request \
          tracing ($(b,--trace-sample), drained by $(b,TRACE)).")
    Term.(ret (const run $ files_arg $ store_flag $ synthesize_flag
               $ seed_arg $ per_cell_arg $ sizes_arg $ host_arg $ port_arg
               $ socket_arg $ workers_arg $ queue_arg $ read_timeout_arg
               $ write_timeout_arg $ max_request_arg $ deadline_arg
               $ retry_after_arg $ access_log_arg $ log_level_arg
               $ slow_ms_arg $ trace_sample_arg $ trace_perfetto_arg
               $ metrics_arg))

let call_cmd =
  let words_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORD"
           ~doc:"The request, e.g. $(b,VALIDATE montage) or $(b,CORRECT \
                 montage DEADLINE 5). Words are joined with spaces.")
  in
  let timeout_arg =
    Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"S"
           ~doc:"Connect/receive/send deadline in seconds.")
  in
  let run host port socket timeout words =
    let target =
      match (socket, port) with
      | Some path, None -> Ok (`Unix path)
      | None, Some port -> Ok (`Tcp (host, port))
      | None, None -> Error "need --port or --unix-socket"
      | Some _, Some _ -> Error "--port and --unix-socket are exclusive"
    in
    match target with
    | Error msg -> fail "%s" msg
    | Ok target ->
      match Sclient.connect ~timeout_s:timeout target with
      | Error msg -> fail "%s" msg
      | Ok client ->
        let result = Sclient.request client (String.concat " " words) in
        Sclient.close client;
        (match result with
         | Error msg -> fail "%s" msg
         | Ok (Sproto.Ok_lines lines) ->
           (* The client ignored SIGPIPE for the socket's sake; restore the
              default before printing so `wolves call ... | head` dies
              silently like any filter instead of tripping over EPIPE at
              the exit-time stdout flush. *)
           (try ignore (Sys.signal Sys.sigpipe Sys.Signal_default)
            with Invalid_argument _ | Sys_error _ -> ());
           List.iter print_endline lines;
           `Ok ()
         | Ok (Sproto.Err (code, msg)) ->
           Printf.eprintf "ERR %s %s\n" code msg;
           exit 1
         | Ok (Sproto.Overloaded ms) ->
           Printf.eprintf "OVERLOADED %d\n" ms;
           exit 2)
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one request to a running $(b,wolves serve) and print the \
          reply payload. Exits 1 on an $(b,ERR) reply, 2 on \
          $(b,OVERLOADED).")
    Term.(ret (const run $ host_arg $ port_arg $ socket_arg $ timeout_arg
               $ words_arg))

let top_cmd =
  let module D = Wolves_server.Dashboard in
  let interval_arg =
    Arg.(value & opt float 2. & info [ "interval"; "n" ] ~docv:"S"
           ~doc:"Seconds between polls.")
  in
  let once_flag =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Scrape once, print the panel, exit (for scripts and CI).")
  in
  let timeout_arg =
    Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"S"
           ~doc:"Connect/receive/send deadline in seconds.")
  in
  let run host port socket timeout interval once =
    if interval <= 0. then fail "--interval must be positive"
    else
      let target =
        match (socket, port) with
        | Some path, None -> Ok (`Unix path)
        | None, Some port -> Ok (`Tcp (host, port))
        | None, None -> Error "need --port or --unix-socket"
        | Some _, Some _ -> Error "--port and --unix-socket are exclusive"
      in
      match target with
      | Error msg -> fail "%s" msg
      | Ok target -> (
        match Sclient.connect ~timeout_s:timeout target with
        | Error msg -> fail "%s" msg
        | Ok client ->
          let finish r =
            Sclient.close client;
            r
          in
          let rec loop prev =
            match D.fetch client with
            | Error msg -> finish (fail "%s" msg)
            | Ok sample ->
              if once then finish (`Ok (print_string (D.render ?prev sample)))
              else begin
                (* clear + home, then the panel: a cheap full-screen
                   refresh that needs no terminal library *)
                print_string "\027[H\027[2J";
                print_string (D.render ?prev sample);
                flush stdout;
                (try Unix.sleepf interval
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                loop (Some sample)
              end
          in
          loop None)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running $(b,wolves serve): polls the \
          $(b,METRICS) verb and renders qps, shed rate, in-flight, error \
          counts and per-verb p50/p99. $(b,--once) prints a single panel \
          and exits; otherwise refreshes every $(b,--interval) seconds \
          until interrupted.")
    Term.(ret (const run $ host_arg $ port_arg $ socket_arg $ timeout_arg
               $ interval_arg $ once_flag))

let promcheck_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"An exposition page, e.g. the payload of a $(b,METRICS) \
                 call or the output of $(b,wolves stats --prom).")
  in
  let run file =
    let page =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Wolves_obs.Prom.check page with
    | Ok samples ->
      Printf.printf "ok: %d sample(s)\n" samples;
      `Ok ()
    | Error msg -> fail "%s: %s" file msg
  in
  Cmd.v
    (Cmd.info "promcheck"
       ~doc:
         "Validate a Prometheus text-format exposition page: every sample \
          parses, every family has a $(b,# TYPE) line and is contiguous, \
          histogram buckets are cumulative with increasing bounds and a \
          terminal $(b,+Inf) bucket matching $(b,_count). Exits 1 on the \
          first violation — the CI gate for $(b,METRICS) scrapes.")
    Term.(ret (const run $ file_arg))

let main =
  let doc =
    "WOLVES: detect and resolve unsound workflow views for correct \
     provenance analysis (VLDB'09 demonstration, reproduced)."
  in
  Cmd.group
    (Cmd.info "wolves" ~version:"1.0.0" ~doc)
    [ show_cmd; validate_cmd; lint_cmd; analyze_cmd; correct_cmd; split_cmd;
      merge_cmd;
      resolve_cmd; diagnose_cmd; provenance_cmd; query_cmd; simulate_cmd;
      stats_cmd; profile_cmd; suggest_cmd; evolve_cmd; edit_cmd; report_cmd;
      estimate_cmd; generate_cmd; audit_cmd; store_cmd; serve_cmd; call_cmd;
      top_cmd; promcheck_cmd ]

let () =
  let code = Cmd.eval main in
  (* A command whose primary work succeeded but whose requested artifact
     (metrics dump, trace) could not be written must still fail: scripts
     and --json consumers depend on the exit code, not on spotting a
     warning line on stderr. *)
  exit (if code = 0 && !io_failure then 1 else code)
