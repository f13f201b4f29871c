module Digraph = Wolves_graph.Digraph
module Algo = Wolves_graph.Algo
module Reach = Wolves_graph.Reach

type task = int

type t = {
  name : string;
  graph : Digraph.t;
  task_names : string array;
  by_name : (string, task) Hashtbl.t;
  topo : task list;
  attributes : (string * string) list array; (* task -> attributes by key *)
  annots : (task, (task * task list) list) Hashtbl.t;
      (* task -> dependency annotation entries, declaration order: each
         entry names an output (by consumer task) and the inputs (by
         producer task) that output depends on. Entries are stored loosely —
         names resolve to declared tasks but need not be graph neighbours,
         so the static analyses can diagnose inconsistencies instead of
         construction rejecting them. *)
  mutable closure : Reach.t option; (* computed on first use *)
}

type error =
  | Duplicate_task of string
  | Unknown_task of string
  | Self_dependency of string
  | Cyclic of string list

let pp_error ppf = function
  | Duplicate_task n -> Format.fprintf ppf "duplicate task %S" n
  | Unknown_task n -> Format.fprintf ppf "unknown task %S" n
  | Self_dependency n -> Format.fprintf ppf "task %S depends on itself" n
  | Cyclic names ->
    Format.fprintf ppf "dependency cycle: %s" (String.concat " -> " names)

exception Spec_error of error

let ok_exn = function Ok v -> v | Error e -> raise (Spec_error e)

module Builder = struct

  type t = {
    b_name : string;
    b_graph : Digraph.t;
    mutable b_task_names : string list; (* reversed *)
    b_by_name : (string, task) Hashtbl.t;
    b_attrs : (task * string, string) Hashtbl.t;
    b_annots : (task, (task * task list) list) Hashtbl.t;
  }

  let create ?(name = "workflow") () =
    { b_name = name;
      b_graph = Digraph.create ();
      b_task_names = [];
      b_by_name = Hashtbl.create 64;
      b_attrs = Hashtbl.create 16;
      b_annots = Hashtbl.create 16 }

  let add_task b name =
    if Hashtbl.mem b.b_by_name name then Error (Duplicate_task name)
    else begin
      let id = Digraph.add_node b.b_graph in
      Hashtbl.add b.b_by_name name id;
      b.b_task_names <- name :: b.b_task_names;
      Ok id
    end

  let add_task_exn b name = ok_exn (add_task b name)

  let lookup b name =
    match Hashtbl.find_opt b.b_by_name name with
    | Some id -> Ok id
    | None -> Error (Unknown_task name)

  let set_attr b task_name ~key value =
    match lookup b task_name with
    | Error _ as e -> e
    | Ok task ->
      Hashtbl.replace b.b_attrs (task, key) value;
      Ok ()

  let set_attr_exn b task_name ~key value = ok_exn (set_attr b task_name ~key value)

  let add_dependency b producer consumer =
    match (lookup b producer, lookup b consumer) with
    | Error e, _ | _, Error e -> Error e
    | Ok u, Ok v ->
      if u = v then Error (Self_dependency producer)
      else begin
        Digraph.add_edge b.b_graph u v;
        Ok ()
      end

  let add_dependency_exn b producer consumer =
    ok_exn (add_dependency b producer consumer)

  let annotate b task_name ~output inputs =
    (* Names must be declared; being actual graph neighbours is a lint
       concern, not a construction one (see the [annots] field comment). *)
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest ->
        (match lookup b name with
         | Error _ as e -> e
         | Ok id -> resolve (id :: acc) rest)
    in
    match (lookup b task_name, lookup b output, resolve [] inputs) with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    | Ok task, Ok out, Ok ins ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt b.b_annots task)
      in
      Hashtbl.replace b.b_annots task (existing @ [ (out, ins) ]);
      Ok ()

  let annotate_exn b task_name ~output inputs =
    ok_exn (annotate b task_name ~output inputs)

  let finish b =
    let graph = Digraph.copy b.b_graph in
    let task_names = Array.of_list (List.rev b.b_task_names) in
    match Algo.topological_sort graph with
    | Some topo ->
      let attributes = Array.make (Array.length task_names) [] in
      Hashtbl.iter
        (fun (task, key) value -> attributes.(task) <- (key, value) :: attributes.(task))
        b.b_attrs;
      Ok { name = b.b_name;
           graph;
           task_names;
           by_name = Hashtbl.copy b.b_by_name;
           topo;
           attributes = Array.map (List.sort compare) attributes;
           annots = Hashtbl.copy b.b_annots;
           closure = None }
    | None ->
      let cycle =
        match Algo.find_cycle graph with
        | Some nodes -> List.map (fun v -> task_names.(v)) nodes
        | None -> assert false
      in
      Error (Cyclic cycle)

  let finish_exn b = ok_exn (finish b)
end

let of_tasks ~name task_list deps =
  let b = Builder.create ~name () in
  let rec add_all add = function
    | [] -> Ok ()
    | x :: rest ->
      (match add x with Error e -> Error e | Ok _ -> add_all add rest)
  in
  match add_all (Builder.add_task b) task_list with
  | Error e -> Error e
  | Ok () ->
    (match add_all (fun (p, c) -> Builder.add_dependency b p c) deps with
     | Error e -> Error e
     | Ok () -> Builder.finish b)

let of_tasks_exn ~name task_list deps = ok_exn (of_tasks ~name task_list deps)

let name spec = spec.name

let n_tasks spec = Digraph.n_nodes spec.graph

let n_dependencies spec = Digraph.n_edges spec.graph

let task_name spec t =
  if t < 0 || t >= Array.length spec.task_names then
    invalid_arg (Printf.sprintf "Spec.task_name: unknown task %d" t);
  spec.task_names.(t)

let task_of_name spec n = Hashtbl.find_opt spec.by_name n

let task_of_name_exn spec n =
  match task_of_name spec n with
  | Some t -> t
  | None -> raise (Spec_error (Unknown_task n))

let tasks spec = List.init (n_tasks spec) Fun.id

let graph spec = spec.graph

let producers spec t = Digraph.pred spec.graph t

let consumers spec t = Digraph.succ spec.graph t

let attrs spec t =
  if t < 0 || t >= Array.length spec.attributes then [] else spec.attributes.(t)

let attr spec t key = List.assoc_opt key (attrs spec t)

let float_attr spec t key = Option.bind (attr spec t key) float_of_string_opt

let reach spec =
  match spec.closure with
  | Some r -> r
  | None ->
    let r = Reach.compute spec.graph in
    spec.closure <- Some r;
    r

let depends spec u v = Reach.reaches (reach spec) u v

let annotation spec t =
  if t < 0 || t >= n_tasks spec then
    invalid_arg (Printf.sprintf "Spec.annotation: unknown task %d" t);
  Hashtbl.find_opt spec.annots t

let annotated_tasks spec =
  List.filter (fun t -> Hashtbl.mem spec.annots t) (tasks spec)

let has_annotations spec = Hashtbl.length spec.annots > 0

let topological_order spec = spec.topo

let pp ppf spec =
  Format.fprintf ppf "workflow %S (%d tasks, %d dependencies)" spec.name
    (n_tasks spec) (n_dependencies spec)
