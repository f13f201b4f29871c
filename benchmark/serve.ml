(* The serve workloads, end to end: `wolves serve` spawned from the built
   binary with its default configuration and no tracing, measured over the
   wire only. *)

module Clock = Wolves_obs.Clock
module Service = Wolves_server.Service
module Protocol = Wolves_server.Protocol

type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
  info : (string * string) list;
}

(* The client spent longer between requests than the server took to
   answer them: it, not the server, set the pace. *)
exception Generator_behind of float * float

type server = { pid : int; port : int; out : in_channel }

(* "serving N workflow(s) on tcp 127.0.0.1:PORT: ..." *)
let port_of line =
  match String.split_on_char ':' line with
  | _ :: port :: _ when int_of_string_opt port <> None -> int_of_string port
  | _ -> failwith ("unexpected server banner: " ^ line)

let start bin args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Proc.spawn ~stdout:w bin args in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line -> { pid; port = port_of line; out }
  | exception End_of_file ->
      close_in out;
      ignore (Proc.reap pid);
      failwith "wolves serve exited during start-up"

(* The server's peak RSS in KiB, read just before SIGTERM; then drain and
   reap. *)
let stop s =
  let peak = Proc.peak_kb s.pid in
  Unix.kill s.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file -> ());
  close_in s.out;
  match (Proc.reap s.pid, peak) with
  | 0, Some kb -> kb
  | 0, None -> failwith "no VmHWM in /proc for wolves serve"
  | code, _ -> failwith (Printf.sprintf "wolves serve exited with %d" code)

let stats port =
  let c = Wire.connect port in
  let reply = Fun.protect ~finally:(fun () -> Wire.close c) (fun () -> Wire.request c "STATS") in
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i ->
          Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> None)
    (Wire.payload reply)

(* A STATS field, 0 when a later server no longer reports it. *)
let stat key kv =
  Option.value ~default:0. (Option.bind (List.assoc_opt key kv) float_of_string_opt)

(* Spawn until every corpus id has answered its set-up query. *)
let timed_start bin args expected =
  let t0 = Clock.now () in
  let s = start bin args in
  let c = Wire.connect s.port in
  let wrong =
    List.filter
      (fun (id, reply) -> Wire.request c (Corpus.setup_request id) <> reply)
      expected
  in
  Wire.close c;
  let dt = Clock.elapsed_since t0 in
  (s, dt, List.map (fun (id, _) -> "setup: wrong reply for " ^ id) wrong)

(* DEADLINE replies may name a different tier (and so different part
   counts) when the server charged queue wait against the budget. *)
let mask_tiers reply =
  String.split_on_char '\n' reply
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | "split" :: name :: _ -> "split " ^ name
         | "composites" :: _ -> "composites"
         | _ -> l)
  |> String.concat "\n"

(* Every distinct reply against the oracle where one covers the request,
   else against the in-process Service.handle on the same documents.
   Returns (mismatching replies, tier-degraded DEADLINE replies, notes). *)
let verify parsed (reqs : Corpus.req array) replies =
  let by_line = Hashtbl.create 1024 in
  Array.iter (fun (r : Corpus.req) -> Hashtbl.replace by_line r.line r) reqs;
  let service = lazy (Service.load (List.of_seq (Hashtbl.to_seq parsed))) in
  let wrong = ref 0 and degraded = ref 0 and notes = ref [] in
  Hashtbl.iter
    (fun line seen ->
      let r : Corpus.req = Hashtbl.find by_line line in
      let expected =
        match Oracle.expected (Hashtbl.find parsed r.id) r with
        | Some e -> e
        | None -> (
            match Protocol.parse line with
            | Ok q -> Protocol.render (Service.handle (Lazy.force service) q)
            | Error _ -> "")
      in
      List.iter
        (fun (reply, n) ->
          if reply = expected || not (Wire.is_ok reply) then ()
          else if r.kind = Deadline && mask_tiers reply = mask_tiers expected
          then degraded := !degraded + !n
          else begin
            wrong := !wrong + !n;
            if List.length !notes < 5 then
              notes := Printf.sprintf "wrong reply to %s" line :: !notes
          end)
        seen)
    replies;
  (!wrong, !degraded, !notes)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let ms x = x *. 1e3

let run (w : Corpus.workload) ~bin ~work ~seed ~seconds ~clients =
  let generated = Corpus.views w ~seed in
  let docs = List.map (fun (id, v) -> { Corpus.id; text = Corpus.render w v }) generated in
  let parsed = Hashtbl.create 32 in
  List.iter (fun (d : Corpus.doc) -> Hashtbl.replace parsed d.id (Corpus.parse w d)) docs;
  let dir = Filename.concat work (Corpus.name w) in
  Sys.mkdir dir 0o755;
  let files =
    List.map
      (fun (d : Corpus.doc) ->
        let path = Filename.concat dir (d.id ^ Corpus.ext w) in
        write_file path d.text;
        path)
      docs
  in
  let args =
    match w with
    | Prov_large ->
        let store = Filename.concat dir "store" in
        (match Proc.run_quiet bin [ "store"; "ingest"; store; "--from"; dir ] with
        | 0, _ -> ()
        | code, _ -> failwith (Printf.sprintf "wolves store ingest exited with %d" code));
        [ "serve"; "--port"; "0"; "--store"; store ]
    | _ -> [ "serve"; "--port"; "0" ] @ files
  in
  let setup_replies =
    List.map
      (fun (d : Corpus.doc) ->
        (d.id, Oracle.reply (Oracle.on_paths (Hashtbl.find parsed d.id))))
      docs
  in
  (* the last start serves the measured phases *)
  let t0 = Clock.now () in
  let rec starts acc =
    let s, dt, notes = timed_start bin args setup_replies in
    let acc = (dt, notes) :: acc in
    if Stats.another_setup ~done_:(List.length acc) ~elapsed:(Clock.elapsed_since t0) then begin
      ignore (stop s);
      starts acc
    end
    else (s, acc)
  in
  let server, setups = starts [] in
  let setup_s = Stats.median (Array.of_list (List.map fst setups)) in
  let setup_notes = List.concat_map snd setups in
  let reqs = Corpus.requests w ~seed generated 20_000 in
  let round = Corpus.round w ~ids:(List.length docs) in
  let port = server.port in
  (* A tenth warms up; then latency from one client and throughput from
     [clients], each a closed loop over an even share of the rest. *)
  let now = Clock.now () in
  let record_from = now +. (0.1 *. seconds) in
  let lat_until = record_from +. (0.45 *. seconds) in
  let lat = Loadgen.closed_loop ~port ~clients:1 ~reqs ~first:0 ~until:lat_until in
  let thr = Loadgen.closed_loop ~port ~clients ~reqs ~first:0 ~until:(now +. seconds) in
  let tallies = lat @ thr in
  let latency_samples = Loadgen.whole_rounds ~round ~from:record_from (Loadgen.samples lat) in
  let rate_samples = Loadgen.whole_rounds ~round ~from:lat_until (Loadgen.samples thr) in
  let after = stats port in
  let rss_kb = stop server in
  let gap_p50 = Stats.median (Loadgen.gaps latency_samples) in
  let lat_p50 = Stats.median (Loadgen.latencies latency_samples) in
  if gap_p50 > lat_p50 then raise (Generator_behind (gap_p50, lat_p50));
  let replies = Loadgen.replies tallies in
  let wrong, degraded, notes = verify parsed reqs replies in
  let attempted = Array.length (Loadgen.samples tallies) in
  let transport = Loadgen.sum (fun t -> t.Loadgen.failed) tallies in
  let bytes = Loadgen.sum (fun t -> t.Loadgen.bytes) tallies in
  let sorted = Stats.sorted (Loadgen.latencies latency_samples) in
  let n = Array.length sorted in
  let windows samples = Loadgen.windows ~round ~min_s:2. samples in
  let per_window samples f = Stats.median (Array.of_list (List.map f (windows samples))) in
  let latency q = per_window latency_samples (fun w -> ms (Stats.quantile (Loadgen.latencies w) q)) in
  { values =
      [ ("setup_s", setup_s);
        ("p50_ms", latency 0.5);
        ("p90_ms", latency 0.9);
        ("throughput", per_window rate_samples Loadgen.throughput);
        ("rss_mb", float_of_int rss_kb /. 1024.);
        ("loadgen.gap_p99_ms", ms (Stats.quantile (Loadgen.gaps latency_samples) 0.99));
        ("server.errors", stat "errors" after);
        ("server.shed", stat "shed" after);
        ("server.timeouts", stat "timeouts" after) ];
    attempted = attempted + List.length setup_replies * List.length setups;
    failed = transport + wrong + List.length setup_notes;
    problems = setup_notes @ notes @ List.concat_map (fun t -> t.Loadgen.problems) tallies;
    info =
      [ ("setup_starts", string_of_int (List.length setups));
        ("latency_samples", string_of_int n);
        ("latency_windows", string_of_int (List.length (windows latency_samples)));
        ("throughput_windows", string_of_int (List.length (windows rate_samples)));
        ("p99_ms",
          if n >= 1000 then Printf.sprintf "%.4f" (ms (Stats.quantile_sorted sorted 0.99))
          else "n/a (fewer than 10 samples beyond it)");
        ("server_stats_p50_ms", Printf.sprintf "%g" (stat "latency_p50_ms" after));
        ("server_stats_p99_ms", Printf.sprintf "%g" (stat "latency_p99_ms" after));
        ("reply_kb", Printf.sprintf "%.3f" (float_of_int bytes /. float_of_int attempted /. 1024.));
        ("deadline_tier_degraded", string_of_int degraded);
        ("distinct_requests_checked", string_of_int (Hashtbl.length replies)) ] }
