open Wolves_workflow
open Wolves_core
module Par = Wolves_par.Par
module Query = Wolves_query.Query
module Lint = Wolves_lint.Lint
module Repository = Wolves_repository.Repository

type t = { views : (string, View.t) Hashtbl.t; ids : string list }

(* Force every lazily-built structure a request handler can touch. After
   this, concurrent handlers only read: the spec's closure (both
   directions) is immutable once built. The view-graph closure is not
   pinned, because no handler reads it (queries, VALIDATE, CORRECT, LINT
   and ANALYZE all work on the spec's closure). *)
let pin view = ignore (Spec.reach (View.spec view))

let load entries =
  let views = Hashtbl.create (List.length entries * 2) in
  List.iter
    (fun (id, view) ->
      if id = "" then invalid_arg "Service.load: empty id";
      if Hashtbl.mem views id then
        invalid_arg (Printf.sprintf "Service.load: duplicate id %s" id);
      Hashtbl.add views id view)
    entries;
  (* The index builds are independent per view and read-only for everyone
     else, so they farm across the pool; the join barrier publishes them to
     the worker domains that will serve requests. *)
  ignore (Par.map_ordered (fun (_, v) -> pin v) (Array.of_list entries));
  let ids = List.map fst entries |> List.sort compare in
  { views; ids }

let of_files paths =
  let load_one path =
    let result =
      if Filename.check_suffix path ".wf" then
        match Wolves_lang.Wfdsl.load path with
        | Ok (_, view) -> Ok view
        | Error e ->
            Error (Format.asprintf "%a" Wolves_lang.Wfdsl.pp_error e)
      else
        match Wolves_moml.Moml.load path with
        | Ok (_, view) -> Ok view
        | Error e -> Error (Format.asprintf "%a" Wolves_moml.Moml.pp_error e)
    in
    match result with
    | Ok view -> Ok (Filename.remove_extension (Filename.basename path), view)
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: ps -> (
        match load_one p with
        | Ok entry -> go (entry :: acc) ps
        | Error _ as e -> e)
  in
  match go [] paths with
  | Error msg -> Error msg
  | Ok entries -> (
      match load entries with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg)

let of_repository repo =
  load
    (List.map
       (fun e -> (e.Repository.id, e.Repository.view))
       (Repository.entries repo))

let of_store dir =
  match Repository.load_store dir with
  | Ok repo -> Ok (of_repository repo)
  | Error e -> Error (Format.asprintf "%a" Repository.pp_io_error e)

let ids t = t.ids
let size t = List.length t.ids
let find t id = Hashtbl.find_opt t.views id

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let criterion_name c = Format.asprintf "%a" Corrector.pp_criterion c

let list_line t id =
  let view = Hashtbl.find t.views id in
  let spec = View.spec view in
  Printf.sprintf "%s tasks %d composites %d" id (Spec.n_tasks spec)
    (View.n_composites view)

let validate_lines ~domains view =
  let report = Soundness.validate ~domains view in
  let head =
    [ Printf.sprintf "workflow %s" (Spec.name (View.spec view));
      Printf.sprintf "composites %d" (View.n_composites view);
      Printf.sprintf "sound %b" (report.Soundness.unsound = []) ]
  in
  head
  @ List.map
      (fun (c, witnesses) ->
        Printf.sprintf "unsound %s witnesses %d"
          (View.composite_name view c)
          witnesses)
      report.Soundness.unsound

(* Correction replies never include wall-clock readings: with the modeled
   check cost dominating on corpus-sized gadgets, the whole reply is a
   deterministic function of (corpus, request, spent_s) — the property the
   chaos suite pins down. *)
let correct_lines ~domains ~spent_s view = function
  | Protocol.Criterion crit ->
      let corrected, outcomes = Corrector.correct ~domains crit view in
      Printf.sprintf "corrected %d criterion %s" (List.length outcomes)
        (criterion_name crit)
      :: List.map
           (fun (c, o) ->
             Printf.sprintf "split %s parts %d"
               (View.composite_name view c)
               (List.length o.Corrector.parts))
           outcomes
      @ [ Printf.sprintf "composites %d" (View.n_composites corrected) ]
  | Protocol.Deadline_ms ms ->
      let deadline_s = ms /. 1000. in
      let corrected, outcomes =
        Corrector.correct_with_deadline ~spent_s ~deadline_s view
      in
      Printf.sprintf "corrected %d deadline_ms %g" (List.length outcomes) ms
      :: List.map
           (fun (c, (o : Corrector.tier_outcome)) ->
             Printf.sprintf "split %s parts %d tier %s proven %b%s"
               (View.composite_name view c)
               (List.length o.result.parts)
               (criterion_name o.tier) o.proven_optimal
               (match o.abandoned with
               | None -> ""
               | Some a -> " abandoned " ^ criterion_name a))
           outcomes
      @ [ Printf.sprintf "composites %d" (View.n_composites corrected) ]

let terminal_lines diagnostics =
  Lint.to_terminal ~color:false diagnostics
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let analysis_rules =
  [ "spec/annotation-inconsistent"; "spec/annotation-incomplete";
    "spec/dead-data"; "view/hidden-dependency" ]

let handle ?(domains = 1) ?(spent_s = 0.) ?default_deadline_ms t request =
  let with_view id k =
    match Hashtbl.find_opt t.views id with
    | None ->
        Protocol.Err
          ( "unknown-id",
            Printf.sprintf "no workflow %s loaded (try LIST)"
              (Protocol.sanitize id) )
    | Some view -> k view
  in
  try
    match request with
    | Protocol.Ping -> Protocol.Ok_lines [ "pong" ]
    | Protocol.Quit -> Protocol.Ok_lines [ "bye" ]
    | Protocol.List_ids -> Protocol.Ok_lines (List.map (list_line t) t.ids)
    | Protocol.Stats | Protocol.Health | Protocol.Metrics | Protocol.Trace ->
        Protocol.Err
          ( "bad-request",
            "STATS, HEALTH, METRICS and TRACE are served, not library calls" )
    | Protocol.Validate id ->
        with_view id (fun v -> Protocol.Ok_lines (validate_lines ~domains v))
    | Protocol.Correct (id, what) ->
        with_view id (fun v ->
            let what =
              match (what, default_deadline_ms) with
              | Some w, _ -> w
              | None, Some ms -> Protocol.Deadline_ms ms
              | None, None -> Protocol.Criterion Corrector.Strong
            in
            Protocol.Ok_lines (correct_lines ~domains ~spent_s v what))
    | Protocol.Query (id, expr) ->
        with_view id (fun v ->
            match Query.eval_names v expr with
            | Ok names -> Protocol.Ok_lines names
            | Error e ->
                Protocol.Err
                  ( "bad-request",
                    Printf.sprintf "query error at %d: %s" e.Query.position
                      e.Query.message ))
    | Protocol.Lint id ->
        with_view id (fun v -> Protocol.Ok_lines (terminal_lines (Lint.run v)))
    | Protocol.Analyze id ->
        with_view id (fun v ->
            let config =
              { Lint.default_config with rules = Some analysis_rules }
            in
            Protocol.Ok_lines (terminal_lines (Lint.run ~config v)))
  with
  | Invalid_argument msg -> Protocol.Err ("bad-request", msg)
  | e -> Protocol.Err ("internal", Printexc.to_string e)
