(* The WOLVES benchmark driver. Run from the repository root:

     dune exec benchmark/main.exe -- --workload prov-query --seed 1

   prints every metric as "workload metric value unit", then one JSON result
   line: the end-to-end metrics, or with --trace 1 the per-layer metrics of
   the same run plus a separate traced in-process pass. See README.md. *)

open Wolves_benchmark

let usage =
  "main.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-dir DIR] [--json FILE] [--work DIR]"

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit code)
    fmt

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* The server binary comes from the same build as this executable, and
   that build from the sources in the working directory. *)
let server_binary () =
  (match Source_digest.compute "." with
  | None -> die 2 "run from the repository root (no lib/ or bin/ here)"
  | Some d when d <> Build_info.sources_digest ->
      die 2 "stale build: lib/ or bin/ changed since it was built; run dune build"
  | Some _ -> ());
  let bin = Filename.concat (Filename.dirname Sys.executable_name) "wolves.exe" in
  if not (Sys.file_exists bin) then die 2 "server binary missing: %s" bin;
  bin

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let trace_dir = ref "" and json = ref "" and work = ref "_benchmark" in
  Arg.parse
    [ ("--workload",
        Arg.String
          (fun s ->
            match Corpus.of_name s with
            | Some w -> workloads := !workloads @ [ w ]
            | None -> raise (Arg.Bad ("unknown workload " ^ s))),
        "W prov-query, prov-correct, prov-large or audit (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 20)");
      ("--trace", Arg.Int (fun t -> if t = 0 || t = 1 then trace := t else raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 report per-layer metrics from a traced pass (default 0)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where --trace 1 writes its files (default WORK/trace)");
      ("--json", Arg.Set_string json, "FILE also write the full run record here");
      ("--work", Arg.Set_string work, "DIR scratch directory (default _benchmark)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1. then die 2 "--seconds must be at least 1";
  let workloads = if !workloads = [] then Corpus.all else !workloads in
  let bin = server_binary () in
  let cores = Domain.recommended_domain_count () in
  let clients = max 1 (min 2 cores) in
  mkdir_p !work;
  let trace_dir = if !trace_dir = "" then Filename.concat !work "trace" else !trace_dir in
  let run_dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree run_dir;
  Sys.mkdir run_dir 0o755;
  at_exit (fun () -> remove_tree run_dir);
  let env =
    [ ("seed", Jsonw.Int !seed);
      ("seconds", Jsonw.Num !seconds);
      ("cores", Jsonw.Int cores);
      ("client_domains", Jsonw.Int clients);
      ("ocaml", Jsonw.Str Sys.ocaml_version);
      ("server_config",
        Jsonw.Str "wolves serve --port 0 with default settings; no --metrics, --access-log or --trace-sample");
      ("wolves_domains",
        Jsonw.Str
          (match Sys.getenv_opt "WOLVES_DOMAINS" with
          | Some v -> v ^ " (unset for the server)"
          | None -> "unset"));
      ("trace", Jsonw.Int !trace) ]
  in
  let single = List.length workloads = 1 in
  let results =
    List.map
      (fun w ->
        let name = Corpus.name w in
        let o =
          try
            match w with
            | Corpus.Audit -> Audit.run ~bin ~work:run_dir ~seed:!seed ~seconds:!seconds
            | _ -> Serve.run w ~bin ~work:run_dir ~seed:!seed ~seconds:!seconds ~clients
          with Serve.Generator_behind (gap, lat) ->
            die 3
              "%s: the load generator set the pace (median gap %.4f ms > median latency %.4f ms); \
               no numbers reported"
              name (gap *. 1e3) (lat *. 1e3)
        in
        let traced =
          if !trace = 1 then begin
            mkdir_p trace_dir;
            let t = Traced.run w ~seed:!seed ~seconds:!seconds ~work:run_dir ~trace_dir in
            let layer = o.Serve.values @ t.values in
            let per_layer =
              List.map
                (fun (m : Catalog.metric) ->
                  Jsonw.Obj
                    [ ("name", Str m.name);
                      ("value", Num (Option.value ~default:nan (List.assoc_opt m.name layer)));
                      ("unit", Str m.unit); ("better", Str (Catalog.better_name m.better));
                      ("moves", Str m.moves) ])
                Catalog.per_layer
            in
            let row (r : Wolves_trace.Profile.row) =
              Jsonw.Obj
                [ ("path", Str r.path); ("count", Int r.count); ("total_s", Num r.total_s);
                  ("self_s", Num r.self_s) ]
            in
            Jsonw.write (t.base ^ ".layers.json")
              (Obj
                 [ ("workload", Str name); ("env", Obj env);
                   ("replayed_requests", Int t.replayed); ("trace_dropped_events", Int t.dropped);
                   ("metrics", List per_layer);
                   ("self_time_top", List (List.map row (Wolves_trace.Profile.top_self ~k:30 t.profile)));
                   ("counters", Obj (List.map (fun (k, v) -> (k, Jsonw.Int v)) t.counters)) ]);
            t.values
          end
          else []
        in
        (w, o, traced))
      workloads
  in
  let key w m = if single then m else Corpus.name w ^ "/" ^ m in
  let reported =
    List.concat_map
      (fun (w, o, traced) ->
        let all = o.Serve.values @ traced in
        List.map
          (fun (m : Catalog.metric) -> (w, m, List.assoc_opt m.name all))
          (if !trace = 1 then Catalog.per_layer else Catalog.end_to_end))
      results
  in
  List.iter
    (fun (w, o, traced) ->
      List.iter
        (fun (k, v) ->
          let m = Catalog.find k in
          Printf.printf "%s %s %.6g %s\n" (Corpus.name w) k v m.unit)
        (o.Serve.values @ traced);
      List.iter (fun (k, v) -> Printf.printf "# %s %s %s\n" (Corpus.name w) k v) o.Serve.info;
      List.iter (fun p -> Printf.printf "# %s problem: %s\n" (Corpus.name w) p) o.Serve.problems)
    results;
  let attempted = List.fold_left (fun a (_, o, _) -> a + o.Serve.attempted) 0 results in
  let failed = List.fold_left (fun a (_, o, _) -> a + o.Serve.failed) 0 results in
  let correct = failed = 0 in
  let metrics =
    Jsonw.Obj
      (List.map
         (fun (w, (m : Catalog.metric), v) ->
           match v with
           | Some v when Float.is_finite v ->
               (key w m.name, Jsonw.Obj [ ("value", Num v); ("unit", Str m.unit) ])
           | _ -> die 4 "%s: metric %s was not measured (too short a run?)" (Corpus.name w) m.name)
         reported)
  in
  if !json <> "" then
    Jsonw.write !json
      (Obj
         [ ("env", Obj env);
           ("workloads",
             Obj
               (List.map
                  (fun (w, o, traced) ->
                    ( Corpus.name w,
                      Jsonw.Obj
                        [ ("attempted", Int o.Serve.attempted); ("failed", Int o.Serve.failed);
                          ("metrics", Obj (List.map (fun (k, v) -> (k, Jsonw.Num v)) (o.Serve.values @ traced)));
                          ("info", Obj (List.map (fun (k, v) -> (k, Jsonw.Str v)) o.Serve.info));
                          ("problems", List (List.map (fun p -> Jsonw.Str p) o.Serve.problems)) ] ))
                  results)) ]);
  Printf.printf "# env %s\n" (Jsonw.to_string (Obj env));
  print_endline
    (Jsonw.to_string
       (Obj
          [ ("correct", Bool correct); ("attempted", Int attempted); ("failed", Int failed);
            ("metrics", metrics) ]));
  exit (if correct then 0 else 1)
