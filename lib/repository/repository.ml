open Wolves_workflow
module Soundness = Wolves_core.Soundness
module Corrector = Wolves_core.Corrector
module Views = Wolves_workload.Views
module Generate = Wolves_workload.Generate
module Moml = Wolves_moml.Moml

type entry = {
  id : string;
  origin : string;
  spec : Spec.t;
  view : View.t;
}

type t = {
  mutable items : entry list; (* reversed *)
  ids : (string, unit) Hashtbl.t;
  mutable next : int;
}

let create () = { items = []; ids = Hashtbl.create 64; next = 0 }

(* Entry ids become file basenames ([<id>.moml]) and store record keys, so
   anything that could navigate outside the target directory is rejected at
   insertion — not at save time, when the bad id is already in the corpus. *)
let valid_id id =
  id <> "" && id <> "." && id <> ".."
  && not (String.exists (fun c -> c = '/' || c = '\\' || c = '\000') id)

let add repo ?id ~origin spec view =
  if View.spec view != spec then
    invalid_arg "Repository.add: view does not belong to the specification";
  let id =
    match id with
    | Some id -> id
    | None ->
      let fresh = Printf.sprintf "wf%04d" repo.next in
      repo.next <- repo.next + 1;
      fresh
  in
  if not (valid_id id) then
    invalid_arg
      (Printf.sprintf
         "Repository.add: invalid id %S (must be non-empty, without path \
          separators, and not a dot-name)"
         id);
  if Hashtbl.mem repo.ids id then
    invalid_arg (Printf.sprintf "Repository.add: duplicate id %S" id);
  Hashtbl.replace repo.ids id ();
  repo.items <- { id; origin; spec; view } :: repo.items;
  id

let size repo = List.length repo.items

let entries repo = List.rev repo.items

let find repo id = List.find_opt (fun e -> e.id = id) repo.items

let default_policies =
  [ Views.Topological_bands 4; Views.Connected_groups 4; Views.Random_partition 4 ]

let synthesize ~seed ~per_cell ~sizes ?(policies = default_policies) () =
  let repo = create () in
  let rng = Wolves_workload.Prng.create seed in
  List.iter
    (fun family ->
      List.iter
        (fun size ->
          List.iter
            (fun policy ->
              for _ = 1 to per_cell do
                let wf_seed = Wolves_workload.Prng.int rng 10_000_000 in
                let spec = Generate.generate family ~seed:wf_seed ~size in
                let view = Views.build ~seed:wf_seed policy spec in
                let origin =
                  Printf.sprintf "%s/%s" (Generate.family_name family)
                    (Views.policy_name policy)
                in
                ignore (add repo ~origin spec view)
              done)
            policies)
        sizes)
    Generate.all_families;
  repo

type entry_audit = {
  entry : entry;
  total_composites : int;
  unsound_composites : int;
}

type audit = {
  per_entry : entry_audit list;
  total : int;
  unsound_views : int;
  by_origin : (string * int * int) list;
  parallel_lane_composites : int;
  entangled_composites : int;
}

let audit repo =
  let reports =
    List.map (fun entry -> (entry, Soundness.validate entry.view)) (entries repo)
  in
  let per_entry =
    List.map
      (fun (entry, report) ->
        { entry;
          total_composites = View.n_composites entry.view;
          unsound_composites = List.length report.Soundness.unsound })
      reports
  in
  let unsound_views =
    List.length (List.filter (fun a -> a.unsound_composites > 0) per_entry)
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let count, bad =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl a.entry.origin)
      in
      Hashtbl.replace tbl a.entry.origin
        (count + 1, bad + if a.unsound_composites > 0 then 1 else 0))
    per_entry;
  let by_origin =
    List.sort compare
      (Hashtbl.fold (fun origin (count, bad) acc -> (origin, count, bad) :: acc) tbl [])
  in
  let lanes = ref 0 and entangled = ref 0 in
  List.iter
    (fun (e, report) ->
      List.iter
        (fun (c, _) ->
          let set =
            Wolves_graph.Bitset.of_list
              (Spec.n_tasks e.spec)
              (View.members e.view c)
          in
          match Soundness.classify_unsound e.spec set with
          | Some (Soundness.Parallel_lanes _) -> incr lanes
          | Some Soundness.Entangled -> incr entangled
          | None -> ())
        report.Soundness.unsound)
    reports;
  { per_entry;
    total = List.length per_entry;
    unsound_views;
    by_origin;
    parallel_lane_composites = !lanes;
    entangled_composites = !entangled }

let pp_audit ppf a =
  Format.fprintf ppf "%d views audited, %d unsound (%.1f%%)" a.total
    a.unsound_views
    (if a.total = 0 then 0.0
     else 100.0 *. float_of_int a.unsound_views /. float_of_int a.total);
  List.iter
    (fun (origin, count, bad) ->
      Format.fprintf ppf "@\n  %-50s %3d views, %3d unsound" origin count bad)
    a.by_origin;
  if a.parallel_lane_composites + a.entangled_composites > 0 then
    Format.fprintf ppf
      "@\nunsound composite patterns: %d parallel-lane, %d entangled"
      a.parallel_lane_composites a.entangled_composites

let correct_all ?(config = Corrector.default_config) criterion repo =
  let repaired = ref 0 in
  let repo' = create () in
  List.iter
    (fun e ->
      (* [correct] validates the view: no outcomes means it is sound, and
         the original entry is kept as it is. *)
      match Corrector.correct ~config criterion e.view with
      | _, [] -> ignore (add repo' ~id:e.id ~origin:e.origin e.spec e.view)
      | corrected, _ ->
        incr repaired;
        ignore
          (add repo' ~id:e.id ~origin:(e.origin ^ "+corrected") e.spec corrected))
    (entries repo);
  (repo', !repaired)

let update repo ~id new_spec =
  match find repo id with
  | None -> Error (Printf.sprintf "no entry %S" id)
  | Some entry ->
    let impact = Wolves_core.Evolution.impact entry.view new_spec in
    let replacement =
      { entry with
        spec = new_spec;
        view = impact.Wolves_core.Evolution.new_view;
        origin = entry.origin ^ "+evolved" }
    in
    repo.items <-
      List.map (fun e -> if e.id = id then replacement else e) repo.items;
    Ok impact

type io_error =
  | Io_error of string
  | Entry_error of string * Moml.error

let pp_io_error ppf = function
  | Io_error msg -> Format.pp_print_string ppf msg
  | Entry_error (file, err) ->
    Format.fprintf ppf "%s: %a" file Moml.pp_error err

exception Io of io_error

let tmp_counter = ref 0

let fsync_path path flags =
  match Unix.openfile path flags 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let save_dir dir repo =
  try
    (match (try Some (Sys.is_directory dir) with Sys_error _ -> None) with
     | Some true -> ()
     | Some false ->
       raise (Io (Io_error (dir ^ ": exists and is not a directory")))
     | None -> Sys.mkdir dir 0o755);
    (* Sweep temporaries left by an earlier crashed or interrupted save:
       they are dead by construction (every live temporary is renamed away
       before save_dir returns). *)
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".tmp" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    List.iter
      (fun e ->
        let file = e.id ^ ".moml" in
        let final = Filename.concat dir file in
        (* Atomic per file: build the entry under a unique temporary name —
           pid + counter, so concurrent savers into the same directory never
           collide — fsync it, and only rename it into place once durable,
           so an interrupted or failed save never leaves a truncated [.moml]
           behind. *)
        incr tmp_counter;
        let tmp =
          Printf.sprintf "%s.%d-%d.tmp" final (Unix.getpid ()) !tmp_counter
        in
        match Moml.save tmp e.view with
        | Ok () ->
          fsync_path tmp [ Unix.O_WRONLY ];
          Sys.rename tmp final
        | Error err ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise (Io (Entry_error (file, err))))
      (entries repo);
    (* One directory fsync covers every rename above. *)
    fsync_path dir [ Unix.O_RDONLY ];
    Ok ()
  with
  | Io err -> Error err
  | Sys_error msg -> Error (Io_error msg)

let moml_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".moml")
  |> List.sort compare

let load_dir dir =
  match moml_files dir with
  | exception Sys_error msg -> Error (Io_error msg)
  | files ->
    let repo = create () in
    (try
       List.iter
         (fun file ->
           match Moml.load (Filename.concat dir file) with
           | Ok (spec, view) ->
             ignore
               (add repo
                  ~id:(Filename.chop_suffix file ".moml")
                  ~origin:"imported" spec view)
           | Error err -> raise (Io (Entry_error (file, err))))
         files;
       Ok repo
     with
     | Io err -> Error err
     | Sys_error msg -> Error (Io_error msg))

let load_dir_lenient dir =
  match moml_files dir with
  | exception Sys_error msg -> Error (Io_error msg)
  | files ->
    let repo = create () in
    let failed = ref [] in
    List.iter
      (fun file ->
        match Moml.load (Filename.concat dir file) with
        | Ok (spec, view) ->
          ignore
            (add repo
               ~id:(Filename.chop_suffix file ".moml")
               ~origin:"imported" spec view)
        | Error err -> failed := (file, Entry_error (file, err)) :: !failed
        | exception Sys_error msg ->
          failed := (file, Io_error msg) :: !failed)
      files;
    Ok (repo, List.rev !failed)

(* --- store-backed persistence --- *)

module Store = Wolves_storage.Store

let store_error e = Io_error (Format.asprintf "%a" Store.pp_error e)

let save_store ?config dir repo =
  let open_for_append () =
    if Store.is_store dir then
      Result.map fst (Store.open_ dir)
    else Store.init ?config dir
  in
  match open_for_append () with
  | Error e -> Error (store_error e)
  | Ok store ->
    let result =
      try
        List.iter
          (fun e ->
            match
              Store.append store Store.Workflow ~id:e.id (Moml.to_string e.view)
            with
            | Ok () -> ()
            | Error err -> raise (Io (store_error err)))
          (entries repo);
        (match Store.close store with
         | Ok () -> Ok ()
         | Error err -> Error (store_error err))
      with Io err ->
        ignore (Store.close store);
        Error err
    in
    result

let load_store dir =
  match Store.open_ dir with
  | Error e -> Error (store_error e)
  | Ok (store, _recovery) ->
    let result =
      match Store.latest store Store.Workflow with
      | Error e -> Error (store_error e)
      | Ok records ->
        let repo = create () in
        (try
           List.iter
             (fun (r : Store.record) ->
               match Moml.of_string r.Store.value with
               | Ok (spec, view) ->
                 ignore (add repo ~id:r.Store.id ~origin:"store" spec view)
               | Error err -> raise (Io (Entry_error (r.Store.id, err))))
             records;
           Ok repo
         with Io err -> Error err)
    in
    ignore (Store.close store);
    result
