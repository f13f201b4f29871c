(* The audit workload, end to end: `wolves audit DIR --correct` processes,
   one per repository directory, each on a fresh copy of its documents. *)

module Clock = Wolves_obs.Clock

let write_dir dir (docs : Corpus.doc list) =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  List.iter
    (fun (d : Corpus.doc) ->
      Serve.write_file (Filename.concat dir (d.id ^ ".moml")) d.text)
    docs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The rewritten directory must hold exactly the documents it was given,
   each a correct repair of its original (see Oracle.check_rewrite). *)
let check_dir dir parsed (docs : Corpus.doc list) =
  let files = Array.to_list (Sys.readdir dir) |> List.sort compare in
  let expected = List.sort compare (List.map (fun (d : Corpus.doc) -> d.id ^ ".moml") docs) in
  if files <> expected then [ dir ^ ": unexpected files after audit" ]
  else
    List.filter_map
      (fun (d : Corpus.doc) ->
        let text = read_file (Filename.concat dir (d.id ^ ".moml")) in
        match Corpus.parse Audit { d with text } with
        | view -> (
            match Oracle.check_rewrite ~original:(Hashtbl.find parsed d.id) view with
            | Ok () -> None
            | Error e -> Some (d.id ^ ": " ^ e))
        | exception Failure e -> Some e)
      docs

(* One `wolves audit DIR --correct` process. *)
type run = {
  wall : float;
  gap : float;  (** the benchmark's own time since the previous process ended *)
  group : int;
}

let snapshot dir (docs : Corpus.doc list) =
  List.map (fun (d : Corpus.doc) -> read_file (Filename.concat dir (d.id ^ ".moml"))) docs

(* setup_s: the median of repeated read-only audits of the whole corpus
   (load and validate everything). The measured phase then cycles through the
   directories in seeded order, a tenth of [seconds] warming up. *)
let run ~bin ~work ~seed ~seconds =
  let docs = Corpus.docs Audit ~seed in
  let parsed = Hashtbl.create 128 in
  List.iter (fun (d : Corpus.doc) -> Hashtbl.replace parsed d.id (Corpus.parse Audit d)) docs;
  let root = Filename.concat work "audit" in
  Sys.mkdir root 0o755;
  let whole = Filename.concat root "all" in
  write_dir whole docs;
  let t0 = Clock.now () in
  let rec setups acc =
    if not (Stats.another_setup ~done_:(List.length acc) ~elapsed:(Clock.elapsed_since t0)) then acc
    else
      match Proc.run_quiet bin [ "audit"; whole ] with
      | 0, dt -> setups (dt :: acc)
      | code, _ -> failwith (Printf.sprintf "wolves audit exited with %d" code)
  in
  let setups = setups [] in
  let groups = Corpus.audit_dirs docs in
  let dirs = Array.mapi (fun g _ -> Filename.concat root (Printf.sprintf "repo-%02d" g)) groups in
  let outputs = Array.make (Array.length groups) None in
  let st = Random.State.make [| seed; 4 |] in
  let order = Array.init (Array.length groups) Fun.id in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let fail msg =
    incr failed;
    if List.length !problems < 5 then problems := msg :: !problems
  in
  let prev = ref (Clock.now ()) in
  let audit g =
    write_dir dirs.(g) groups.(g);
    let start = Clock.now () in
    let code, dt = Proc.run_quiet bin [ "audit"; dirs.(g); "--correct" ] in
    incr attempted;
    (if code <> 0 then fail (Printf.sprintf "%s: exit %d" dirs.(g) code)
     else
       (* each directory's first rewrite goes through the oracles; later
          rewrites of it must be byte-identical *)
       let got = snapshot dirs.(g) groups.(g) in
       match outputs.(g) with
       | None -> (
           match check_dir dirs.(g) parsed groups.(g) with
           | [] -> outputs.(g) <- Some got
           | e :: _ -> fail e)
       | Some first -> if got <> first then fail (dirs.(g) ^ ": rewrite differs between runs"));
    let gap = start -. !prev in
    prev := Clock.now ();
    { wall = dt; gap; group = g }
  in
  (* whole rounds over every directory, in seeded order; only rounds that
     start after the warm-up tenth and end in time are recorded *)
  let t0 = Clock.now () in
  let record_from = t0 +. (0.1 *. seconds) and until = t0 +. seconds in
  let rounds = ref [] and partial = ref [] in
  (try
     while true do
       Corpus.shuffle st order;
       let started = Clock.now () in
       partial := [];
       Array.iter
         (fun g ->
           if Clock.now () >= until then raise Exit;
           partial := audit g :: !partial)
         order;
       if started >= record_from then rounds := Array.of_list !partial :: !rounds
     done
   with Exit -> ());
  (* a run too short for one whole recorded round reports its last,
     partial one *)
  if !rounds = [] then rounds := [ Array.of_list !partial ];
  let runs = Array.concat !rounds in
  (* peak memory from one more, untimed, pass over the directories: the
     polling it needs would disturb the timed runs *)
  let peak_kb =
    Array.fold_left
      (fun peak g ->
        write_dir dirs.(g) groups.(g);
        match Proc.run_polled bin [ "audit"; dirs.(g); "--correct" ] with
        | 0, kb -> max peak kb
        | code, _ ->
            fail (Printf.sprintf "%s: exit %d" dirs.(g) code);
            peak)
      0 order
  in
  (* per-round figures, reported as medians over rounds (see
     Loadgen.windows) *)
  let per_round f = Stats.median (Array.of_list (List.map f !rounds)) in
  let walls r = Array.map (fun x -> x.wall) r in
  { Serve.values =
      [ ("setup_s", Stats.median (Array.of_list setups));
        ("p50_ms", per_round (fun r -> Serve.ms (Stats.quantile (walls r) 0.5)));
        ("p90_ms", per_round (fun r -> Serve.ms (Stats.quantile (walls r) 0.9)));
        ("throughput",
          per_round (fun r ->
              let views = Array.fold_left (fun a x -> a + List.length groups.(x.group)) 0 r in
              float_of_int views /. Array.fold_left ( +. ) 0. (walls r)));
        ("rss_mb", float_of_int peak_kb /. 1024.);
        ("loadgen.gap_p99_ms", Serve.ms (Stats.quantile (Array.map (fun x -> x.gap) runs) 0.99));
        ("server.errors", 0.);
        ("server.shed", 0.);
        ("server.timeouts", 0.) ];
    attempted = !attempted + List.length setups;
    failed = !failed;
    problems = List.rev !problems;
    info =
      [ ("audit_runs_recorded", string_of_int (Array.length runs));
        ("rounds_recorded", string_of_int (List.length !rounds)) ] }
