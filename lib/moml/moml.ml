open Wolves_workflow
module Ast = Wolves_xml.Ast
module Parse = Wolves_xml.Parse
module Print = Wolves_xml.Print

type error =
  | Xml of Parse.error
  | Structure of string
  | Spec_error of Spec.error
  | View_error of View.error

let pp_error ppf = function
  | Xml e -> Format.fprintf ppf "XML error at %a" Parse.pp_error e
  | Structure msg -> Format.fprintf ppf "malformed MoML: %s" msg
  | Spec_error e -> Format.fprintf ppf "workflow error: %a" Spec.pp_error e
  | View_error e -> Format.fprintf ppf "view error: %a" View.pp_error e

exception Fail of error

let fail e = raise (Fail e)

let structure fmt = Format.kasprintf (fun msg -> fail (Structure msg)) fmt

(* What one scan keeps of a document: the elements MoML gives a meaning to,
   in document order (the lists are kept reversed while scanning). A
   declared port records only which direction properties it carries. *)
type port = {
  port_name : string option;
  mutable input : bool;
  mutable output : bool;
}

type entity = {
  entity_name : string option;
  mutable members : entity list; (* child entities *)
  mutable ports : port list;
  mutable props : (string * string) list; (* properties with a name and a value *)
}

type document = {
  mutable root_tag : string;
  mutable root_name : string option;
  mutable tops : entity list; (* the root's entities *)
  mutable relations : string option list;
  mutable links : (string option * string option) list; (* port, relation *)
}

(* Where an element sits decides what its children mean: under the root,
   entities are tasks or composites and relations and links are dataflow;
   under a top-level entity or one of its members, entities, ports and
   properties; under a port, its direction properties. *)
type context =
  | Root
  | Top of entity
  | Member of entity
  | Port of port
  | Ignored

let new_entity attrs =
  { entity_name = Parse.attribute attrs "name"; members = []; ports = []; props = [] }

let child_of_entity parent attrs = function
  | "port" ->
    let p = { port_name = Parse.attribute attrs "name"; input = false; output = false } in
    parent.ports <- p :: parent.ports;
    Port p
  | "property" ->
    (match (Parse.attribute attrs "name", Parse.attribute attrs "value") with
     | Some key, Some value -> parent.props <- (key, value) :: parent.props
     | _ -> ());
    Ignored
  | _ -> Ignored

(* One scan of the document. Nothing is checked here beyond XML
   well-formedness, so an XML error anywhere comes before any structure
   error. *)
let scan text =
  let doc = { root_tag = ""; root_name = None; tops = []; relations = []; links = [] } in
  let stack = ref [] in
  let start_tag tag attrs =
    let context =
      match !stack with
      | [] ->
        doc.root_tag <- tag;
        doc.root_name <- Parse.attribute attrs "name";
        if tag = "entity" then Root else Ignored
      | Root :: _ ->
        (match tag with
         | "entity" ->
           let e = new_entity attrs in
           doc.tops <- e :: doc.tops;
           Top e
         | "relation" ->
           doc.relations <- Parse.attribute attrs "name" :: doc.relations;
           Ignored
         | "link" ->
           doc.links <-
             (Parse.attribute attrs "port", Parse.attribute attrs "relation") :: doc.links;
           Ignored
         | _ -> Ignored)
      | Top parent :: _ when tag = "entity" ->
        let e = new_entity attrs in
        parent.members <- e :: parent.members;
        Member e
      | Member parent :: _ when tag = "entity" ->
        (* too deep: only its presence matters *)
        parent.members <- new_entity attrs :: parent.members;
        Ignored
      | (Top parent | Member parent) :: _ -> child_of_entity parent attrs tag
      | Port p :: _ ->
        if tag = "property" then begin
          match Parse.attribute attrs "name" with
          | Some "input" -> p.input <- true
          | Some "output" -> p.output <- true
          | _ -> ()
        end;
        Ignored
      | Ignored :: _ -> Ignored
    in
    stack := context :: !stack
  in
  let end_tag () = stack := List.tl !stack in
  match Parse.scan { Parse.start_tag; end_tag; text = None } text with
  | Ok () -> Ok doc
  | Error e -> Error (Xml e)

let name_of tag name tag_context =
  match name with
  | Some n -> n
  | None -> structure "<%s> without a name attribute (%s)" tag tag_context

type direction = In | Out

(* Direction of a declared <port>: Ptolemy marks it with an <property
   name="input"/> / <property name="output"/> child. *)
let port_direction port port_name task_name =
  match (port.input, port.output) with
  | true, false -> In
  | false, true -> Out
  | true, true ->
    structure "port %S of %S is both input and output (unsupported)" port_name
      task_name
  | false, false ->
    structure "port %S of %S declares no direction (add <property name=\"input\"/> or \"output\")"
      port_name task_name

(* Dependencies sort as (relation, producer, consumer) triples, field by
   field: the order polymorphic [compare] gives them. Builder insertion
   follows it, and so do the adjacency lists and every MoML rewrite. *)
let compare_dep (r, p, c) (r', p', c') =
  match String.compare r r' with
  | 0 -> (match String.compare p p' with 0 -> String.compare c c' | n -> n)
  | n -> n

(* The structure checks, in phase order: the root, then every top-level
   entity with its members' ports and then properties, then relations, then
   links, then relation endpoints. *)
let read doc =
  if doc.root_tag <> "entity" then
    structure "root element must be <entity>, found <%s>" doc.root_tag;
  let workflow_name = name_of "entity" doc.root_name "root" in
  (* Groups: (composite name, atomic task names). *)
  let groups = ref [] in
  let tasks = ref [] in
  (* Declared ports: (task, port name) -> direction. *)
  let ports = Hashtbl.create 32 in
  (* Task metadata: <property name="k" value="v"/> children. *)
  let attrs = ref [] in
  let add_task entity name =
    tasks := name :: !tasks;
    List.iter
      (fun port ->
        let pname = name_of "port" port.port_name "port" in
        if Hashtbl.mem ports (name, pname) then
          structure "duplicate port %S on %S" pname name;
        Hashtbl.replace ports (name, pname) (port_direction port pname name))
      (List.rev entity.ports);
    List.iter (fun (key, value) -> attrs := (name, key, value) :: !attrs)
      (List.rev entity.props);
    name
  in
  List.iter
    (fun top ->
      let top_name = name_of "entity" top.entity_name "top-level entity" in
      match List.rev top.members with
      | [] ->
        (* Atomic task directly in the workflow: singleton composite. *)
        groups := (top_name, [ add_task top top_name ]) :: !groups
      | members ->
        List.iter
          (fun m ->
            if m.members <> [] then
              structure "entity %S nests deeper than composite/atomic (two levels)"
                (name_of "entity" m.entity_name "nested entity"))
          members;
        let names =
          List.map (fun m -> add_task m (name_of "entity" m.entity_name "atomic task")) members
        in
        groups := (top_name, names) :: !groups)
    (List.rev doc.tops);
  (* Relations and links. The endpoint check below reports the first bad
     relation in this table's fold order, which depends on how the table is
     filled: created at 32, one insertion per relation in document order. *)
  let relations = Hashtbl.create 32 in
  List.iter
    (fun name ->
      let n = name_of "relation" name "relation" in
      if Hashtbl.mem relations n then structure "duplicate relation %S" n;
      Hashtbl.replace relations n (ref []))
    (List.rev doc.relations);
  List.iter
    (fun (port, rel) ->
      let port =
        match port with
        | Some p -> p
        | None -> structure "<link> without a port attribute"
      in
      let rel =
        match rel with
        | Some r -> r
        | None -> structure "<link> without a relation attribute"
      in
      match Hashtbl.find_opt relations rel with
      | None -> structure "link references unknown relation %S" rel
      | Some ends ->
        (* A port reference is "<task name>.<port>", split at the last dot
           (task names may contain dots): a declared port of the task, or
           the implicit .in / .out suffix convention. *)
        let endpoint =
          match String.rindex_opt port '.' with
          | None -> structure "port %S has no .in/.out suffix" port
          | Some i ->
            let task = String.sub port 0 i in
            let suffix = String.sub port (i + 1) (String.length port - i - 1) in
            (match (Hashtbl.find_opt ports (task, suffix), suffix) with
             | Some dir, _ -> (task, dir)
             | None, "in" -> (task, In)
             | None, "out" -> (task, Out)
             | None, _ -> structure "port %S must end in .in or .out" port)
        in
        ends := endpoint :: !ends)
    (List.rev doc.links);
  (* A relation is a hyperedge: every linked output port feeds every linked
     input port (Ptolemy fan-out / fan-in). *)
  let deps =
    Hashtbl.fold
      (fun rel ends acc ->
        let outs = List.filter (fun (_, d) -> d = Out) !ends in
        let ins = List.filter (fun (_, d) -> d = In) !ends in
        if outs = [] then
          structure "relation %S has no source (.out) port" rel
        else if ins = [] then
          structure "relation %S has no destination (.in) port" rel
        else
          List.fold_left
            (fun acc (producer, _) ->
              List.fold_left
                (fun acc (consumer, _) -> (rel, producer, consumer) :: acc)
                acc ins)
            acc outs)
      relations []
    |> List.sort compare_dep
    |> List.map (fun (_, p, c) -> (p, c))
  in
  (workflow_name, List.rev !tasks, List.rev !groups, deps, List.rev !attrs)

let build (name, tasks, groups, deps, attrs) =
  let b = Spec.Builder.create ~name () in
  let rec step f = function
    | [] -> Ok ()
    | x :: rest ->
      (match f x with Error e -> Error e | Ok _ -> step f rest)
  in
  let built =
    match step (Spec.Builder.add_task b) tasks with
    | Error e -> Error e
    | Ok () ->
      (match step (fun (p, c) -> Spec.Builder.add_dependency b p c) deps with
       | Error e -> Error e
       | Ok () ->
         (match
            step
              (fun (task, key, value) -> Spec.Builder.set_attr b task ~key value)
              attrs
          with
          | Error e -> Error e
          | Ok () -> Spec.Builder.finish b))
  in
  match built with
  | Error e -> Error (Spec_error e)
  | Ok spec ->
    (match View.make spec groups with
     | Error e -> Error (View_error e)
     | Ok view -> Ok (spec, view))

let of_string text =
  match scan text with
  | Error e -> Error e
  | Ok doc -> (match read doc with exception Fail e -> Error e | parts -> build parts)

let entity ?(attrs = []) ?(children = []) name =
  Ast.{ tag = "entity"; attrs = ("name", name) :: attrs; children }

let atomic_entity ?(task_attrs = []) name =
  Ast.Element
    (entity
       ~attrs:[ ("class", "wolves.Actor") ]
       ~children:
         (List.map
            (fun (key, value) ->
              Ast.element ~attrs:[ ("name", key); ("value", value) ] "property")
            task_attrs)
       name)

(* One relation per producer, linked once from its .out port and once into
   each consumer's .in port — the Ptolemy fan-out idiom, which also keeps
   documents small. *)
let dependency_elements spec =
  List.concat
    (List.filter_map
       (fun u ->
         match Spec.consumers spec u with
         | [] -> None
         | consumers ->
           let rel = Printf.sprintf "r%d" u in
           Some
             (Ast.element
                ~attrs:[ ("name", rel); ("class", "wolves.Relation") ]
                "relation"
              :: Ast.element
                   ~attrs:
                     [ ("port", Spec.task_name spec u ^ ".out");
                       ("relation", rel) ]
                   "link"
              :: List.map
                   (fun v ->
                     Ast.element
                       ~attrs:
                         [ ("port", Spec.task_name spec v ^ ".in");
                           ("relation", rel) ]
                       "link")
                   consumers))
       (Spec.tasks spec))

let to_string view =
  let spec = View.spec view in
  let composites =
    List.map
      (fun c ->
        Ast.Element
          (entity
             ~attrs:[ ("class", "wolves.CompositeActor") ]
             ~children:
               (List.map
                  (fun t ->
                    atomic_entity ~task_attrs:(Spec.attrs spec t)
                      (Spec.task_name spec t))
                  (View.members view c))
             (View.composite_name view c)))
      (View.composites view)
  in
  let root =
    entity
      ~attrs:[ ("class", "wolves.Workflow") ]
      ~children:(composites @ dependency_elements spec)
      (Spec.name spec)
  in
  Print.to_string root

let spec_to_string spec =
  let root =
    entity
      ~attrs:[ ("class", "wolves.Workflow") ]
      ~children:
        (List.map
           (fun t ->
             atomic_entity ~task_attrs:(Spec.attrs spec t) (Spec.task_name spec t))
           (Spec.tasks spec)
         @ dependency_elements spec)
      (Spec.name spec)
  in
  Print.to_string root

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error (Structure msg)

let save path view =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string view)) with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Structure msg)
