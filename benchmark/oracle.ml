(* Correctness oracles written from the definitions, independent of the
   library's checkers and indexes: reachability is a plain BFS over the
   dependency edges, and soundness is Def 2.3 applied composite by
   composite. Each oracle yields the exact reply the server must send. *)

open Wolves_workflow

let bfs_all spec ~forward srcs =
  let seen = Array.make (Spec.n_tasks spec) false in
  let q = Queue.create () in
  List.iter
    (fun src ->
      seen.(src) <- true;
      Queue.add src q)
    srcs;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (if forward then Spec.consumers spec u else Spec.producers spec u)
  done;
  seen

let bfs spec ~forward src = bfs_all spec ~forward [ src ]

let names spec keep =
  List.filter_map
    (fun t -> if keep t then Some (Spec.task_name spec t) else None)
    (Spec.tasks spec)

let reply lines =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "OK %d\n" (List.length lines));
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

let task view name =
  match Spec.task_of_name (View.spec view) name with
  | Some t -> t
  | None -> invalid_arg ("Oracle: no task " ^ name)

let ancestors view name =
  let spec = View.spec view in
  let a = bfs spec ~forward:false (task view name) in
  names spec (fun t -> a.(t))

let descendants view name =
  let spec = View.spec view in
  let d = bfs spec ~forward:true (task view name) in
  names spec (fun t -> d.(t))

(* composites(ancestors(t)) - ancestors(t): what a view-level answer
   reports beyond the true provenance. *)
let over_report view name =
  let spec = View.spec view in
  let a = bfs spec ~forward:false (task view name) in
  let touched = Array.make (View.n_composites view) false in
  List.iter
    (fun t -> if a.(t) then touched.(View.composite_of_task view t) <- true)
    (Spec.tasks spec);
  names spec (fun t -> touched.(View.composite_of_task view t) && not a.(t))

(* ancestors(sinks) & descendants(sources): every task on some path from
   a source to a sink. *)
let on_paths view =
  let spec = View.spec view in
  let ends f = List.filter (fun t -> f spec t = []) (Spec.tasks spec) in
  let down = bfs_all spec ~forward:true (ends Spec.producers) in
  let up = bfs_all spec ~forward:false (ends Spec.consumers) in
  names spec (fun t -> down.(t) && up.(t))

(* Def 2.3: composite T is sound iff every member receiving an edge from
   outside T reaches every member sending an edge outside T. Returns the
   unsound composites, in id order, with their violating (in, out) pair
   counts. *)
let unsound view =
  let spec = View.spec view in
  let memo = Hashtbl.create 64 in
  let reach t =
    match Hashtbl.find_opt memo t with
    | Some r -> r
    | None ->
        let r = bfs spec ~forward:true t in
        Hashtbl.add memo t r;
        r
  in
  List.filter_map
    (fun c ->
      let inside t = View.composite_of_task view t = c in
      let members = View.members view c in
      let ins =
        List.filter
          (fun t -> List.exists (fun p -> not (inside p)) (Spec.producers spec t))
          members
      and outs =
        List.filter
          (fun t -> List.exists (fun s -> not (inside s)) (Spec.consumers spec t))
          members
      in
      let violations =
        List.fold_left
          (fun acc i ->
            let r = reach i in
            List.fold_left (fun acc o -> if r.(o) then acc else acc + 1) acc outs)
          0 ins
      in
      if violations = 0 then None else Some (c, violations))
    (View.composites view)

let validate view =
  let bad = unsound view in
  [ "workflow " ^ Spec.name (View.spec view);
    Printf.sprintf "composites %d" (View.n_composites view);
    Printf.sprintf "sound %b" (bad = []) ]
  @ List.map
      (fun (c, k) ->
        Printf.sprintf "unsound %s witnesses %d" (View.composite_name view c) k)
      bad

(* The expected reply for the requests the oracles cover. *)
let expected view (r : Corpus.req) =
  match r.kind with
  | Anc -> Some (reply (ancestors view r.target))
  | Desc -> Some (reply (descendants view r.target))
  | Over -> Some (reply (over_report view r.target))
  | Validate -> Some (reply (validate view))
  | Lint | Analyze | Strong | Deadline -> None

(* A corrected rewrite of [original]: the same tasks and dependencies,
   composites that partition the tasks, and every composite sound. *)
let check_rewrite ~original view =
  let s0 = View.spec original and s1 = View.spec view in
  let edges s =
    List.concat_map
      (fun t ->
        List.map
          (fun c -> (Spec.task_name s t, Spec.task_name s c))
          (Spec.consumers s t))
      (Spec.tasks s)
    |> List.sort compare
  in
  let tasks s = List.sort compare (names s (fun _ -> true)) in
  let covered = Array.make (Spec.n_tasks s1) 0 in
  List.iter
    (fun c ->
      List.iter (fun t -> covered.(t) <- covered.(t) + 1) (View.members view c))
    (View.composites view);
  if tasks s0 <> tasks s1 then Error "tasks differ from the original"
  else if edges s0 <> edges s1 then Error "dependencies differ from the original"
  else if Array.exists (fun k -> k <> 1) covered then
    Error "composites do not partition the tasks"
  else
    match unsound view with
    | [] -> Ok ()
    | (c, _) :: _ ->
        Error ("composite " ^ View.composite_name view c ^ " is unsound")
