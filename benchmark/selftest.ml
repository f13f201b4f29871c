(* The benchmark's own checks, run by `dune runtest`: the oracles agree
   with the library, the seeded inputs are reproducible, and
   BENCHMARK.json names exactly the metrics the benchmark reports. *)

open Wolves_workflow
open Wolves_benchmark
module Service = Wolves_server.Service
module Protocol = Wolves_server.Protocol

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let library service line =
  match Protocol.parse line with
  | Ok q -> Protocol.render (Service.handle service q)
  | Error _ -> failwith line

(* Every oracle reply equals the server's handler on [views]. *)
let agree name views ~targets =
  let service = Service.load views in
  List.iter
    (fun (id, view) ->
      let spec = View.spec view in
      let pick = List.filteri (fun i _ -> i mod max 1 (Spec.n_tasks spec / targets) = 0) (Spec.tasks spec) in
      let reqs =
        Corpus.request Validate id ""
        :: List.concat_map
             (fun t ->
               List.map
                 (fun k -> Corpus.request k id (Spec.task_name spec t))
                 [ Corpus.Anc; Desc; Over ])
             pick
      in
      List.iter
        (fun (r : Corpus.req) ->
          check
            (Printf.sprintf "%s: oracle agrees on %s" name r.line)
            (Oracle.expected view r = Some (library service r.line)))
        reqs;
      check (name ^ ": set-up query on " ^ id)
        (Oracle.reply (Oracle.on_paths view) = library service (Corpus.setup_request id));
      let corrected, _ = Wolves_core.Corrector.correct ~domains:1 Wolves_core.Corrector.Strong view in
      check (name ^ ": correction of " ^ id ^ " is a valid rewrite")
        (Oracle.check_rewrite ~original:view corrected = Ok ());
      if Oracle.unsound view <> [] then
        check (name ^ ": unsound " ^ id ^ " is not a valid rewrite")
          (Oracle.check_rewrite ~original:view view <> Ok ()))
    views

let figure1 () =
  let _, view = Examples.figure1 () in
  let c16 = Examples.figure1_unsound_composite view in
  check "figure 1: composite 16 is the only unsound one"
    (List.map fst (Oracle.unsound view) = [ c16 ]);
  agree "figure 1" [ ("figure1", view) ] ~targets:12

let seeded_corpus () =
  let views =
    Corpus.entangled ~seed:7
    |> List.filteri (fun i _ -> i mod 4 = 0)
    |> List.map (fun (id, v) -> (id, Corpus.parse Audit { Corpus.id; text = Corpus.render Audit v }))
  in
  agree "entangled corpus" views ~targets:5

let reproducible () =
  List.iter
    (fun w ->
      let views seed = if w = Corpus.Prov_large then [] else Corpus.docs w ~seed in
      let reqs seed =
        Array.map (fun (r : Corpus.req) -> r.line) (Corpus.requests w ~seed (Corpus.views w ~seed) 400)
      in
      let name = Corpus.name w in
      check (name ^ ": same seed, same documents") (views 3 = views 3);
      check (name ^ ": same seed, same requests") (reqs 3 = reqs 3);
      check (name ^ ": another seed, other documents") (w = Prov_large || views 3 <> views 4);
      check (name ^ ": another seed, other requests") (reqs 3 <> reqs 4))
    [ Corpus.Prov_query; Prov_correct; Prov_large ];
  (* every round asks each (kind, id) pair equally often *)
  let views = Corpus.views Prov_query ~seed:3 in
  let round = Corpus.round Prov_query ~ids:(List.length views) in
  let reqs = Corpus.requests Prov_query ~seed:3 views (2 * round) in
  let counts lo =
    let h = Hashtbl.create 64 in
    for i = lo to lo + round - 1 do
      let r = reqs.(i) in
      Hashtbl.replace h (r.kind, r.id) (1 + Option.value ~default:0 (Hashtbl.find_opt h (r.kind, r.id)))
    done;
    List.sort compare (List.of_seq (Hashtbl.to_seq h))
  in
  check "rounds have a fixed mix" (counts 0 = counts round)

let rec find_from text key i =
  let m = String.length key in
  if i + m > String.length text then None
  else if String.sub text i m = key then Some i
  else find_from text key (i + 1)

(* The values of [field] in BENCHMARK.json, in order. *)
let values_in text field =
  let key = Printf.sprintf "\"%s\": \"" field in
  let rec go acc i =
    match find_from text key i with
    | None -> List.rev acc
    | Some j ->
        let start = j + String.length key in
        let stop = String.index_from text start '"' in
        go (String.sub text start (stop - start) :: acc) stop
  in
  go [] 0

let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let metrics = Catalog.end_to_end @ Catalog.per_layer in
  check "BENCHMARK.json lists the workloads and metrics the benchmark reports"
    (values_in text "name"
    = List.map Corpus.name Corpus.all @ List.map (fun (m : Catalog.metric) -> m.name) metrics);
  check "BENCHMARK.json gives the benchmark's units"
    (values_in text "unit" = List.map (fun (m : Catalog.metric) -> m.unit) metrics);
  check "BENCHMARK.json gives the benchmark's directions"
    (values_in text "better"
    = List.map (fun (m : Catalog.metric) -> Catalog.better_name m.better) metrics)

let () =
  figure1 ();
  seeded_corpus ();
  reproducible ();
  benchmark_json ();
  if !failures > 0 then exit 1
