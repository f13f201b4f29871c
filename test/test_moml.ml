(* Tests for MoML import/export: fixed documents, error injection, and
   round-trip properties over generated workloads. *)

open Wolves_workflow
module Moml = Wolves_moml.Moml
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "MoML error: %a" Moml.pp_error e

let sample_doc =
  {|<?xml version="1.0"?>
<entity name="demo" class="wolves.Workflow">
  <!-- a two-composite view over four tasks -->
  <entity name="front" class="wolves.CompositeActor">
    <entity name="a" class="wolves.Actor"/>
    <entity name="b" class="wolves.Actor"/>
  </entity>
  <entity name="back" class="wolves.CompositeActor">
    <entity name="c" class="wolves.Actor"/>
  </entity>
  <entity name="d" class="wolves.Actor"/>
  <relation name="r0" class="wolves.Relation"/>
  <link port="a.out" relation="r0"/>
  <link port="b.in" relation="r0"/>
  <relation name="r1"/>
  <link port="b.out" relation="r1"/>
  <link port="c.in" relation="r1"/>
  <relation name="r2"/>
  <link port="c.in" relation="r2"/>
  <link port="d.out" relation="r2"/>
  <property name="director" value="dataflow"/>
</entity>|}

let test_parse_sample () =
  let spec, view = ok (Moml.of_string sample_doc) in
  Alcotest.(check string) "workflow name" "demo" (Spec.name spec);
  check_int "tasks" 4 (Spec.n_tasks spec);
  check_int "deps" 3 (Spec.n_dependencies spec);
  check_int "composites" 3 (View.n_composites view);
  (* r2 is written in-first/out-second: direction still d -> c. *)
  check_bool "d -> c" true
    (Spec.depends spec (Spec.task_of_name_exn spec "d")
       (Spec.task_of_name_exn spec "c"));
  let front = Option.get (View.composite_of_name view "front") in
  check_int "front members" 2 (List.length (View.members view front));
  (* The childless top-level entity becomes a singleton composite. *)
  check_bool "singleton d" true (View.composite_of_name view "d" <> None)

let test_parse_errors () =
  let cases =
    [ ("<relation name=\"x\"/>", "root element must be <entity>");
      ("<entity class=\"w\"/>", "without a name");
      ( {|<entity name="w"><entity name="c"><entity name="inner"><entity name="deep"/></entity></entity></entity>|},
        "nests deeper" );
      ( {|<entity name="w"><entity name="a"/><link port="a.out" relation="nope"/></entity>|},
        "unknown relation" );
      ( {|<entity name="w"><entity name="a"/><relation name="r"/><link port="a.out" relation="r"/></entity>|},
        "no destination (.in) port" );
      ( {|<entity name="w"><entity name="a"/><entity name="b"/><relation name="r"/><link port="a.out" relation="r"/><link port="b.out" relation="r"/></entity>|},
        "no destination (.in) port" );
      ( {|<entity name="w"><entity name="a"/><entity name="b"/><relation name="r"/><link port="a.in" relation="r"/><link port="b.in" relation="r"/></entity>|},
        "no source (.out) port" );
      ( {|<entity name="w"><entity name="a"><port name="p"/></entity></entity>|},
        "declares no direction" );
      ( {|<entity name="w"><entity name="a"><port name="p"><property name="input"/><property name="output"/></port></entity></entity>|},
        "both input and output" );
      ( {|<entity name="w"><entity name="a"><port name="p"><property name="output"/></port><port name="p"><property name="input"/></port></entity></entity>|},
        "duplicate port" );
      ( {|<entity name="w"><entity name="a"/><relation name="r"/><relation name="r"/></entity>|},
        "duplicate relation" );
      ( {|<entity name="w"><entity name="a"/><entity name="b"/><relation name="r"/><link port="a" relation="r"/><link port="b.in" relation="r"/></entity>|},
        "no .in/.out suffix" );
      ( {|<entity name="w"><entity name="a"/><entity name="b"/><relation name="r"/><link port="a.sideways" relation="r"/><link port="b.in" relation="r"/></entity>|},
        "must end in .in or .out" );
      ( {|<entity name="w"><entity name="a"/><relation name="r"/><link relation="r"/></entity>|},
        "without a port" ) ]
  in
  List.iter
    (fun (doc, fragment) ->
      match Moml.of_string doc with
      | Ok _ -> Alcotest.failf "expected an error for %s" fragment
      | Error e ->
        let msg = Format.asprintf "%a" Moml.pp_error e in
        let contains =
          let ln = String.length fragment and lh = String.length msg in
          let rec go i = i + ln <= lh && (String.sub msg i ln = fragment || go (i + 1)) in
          go 0
        in
        check_bool (Printf.sprintf "%s in %s" fragment msg) true contains)
    cases

let test_bad_xml_reported () =
  (match Moml.of_string "<entity name=" with
  | Error (Moml.Xml _) -> ()
  | _ -> Alcotest.fail "expected an Xml error");
  (* a character reference to a surrogate is not a scalar value: a typed
     error, not an escaping Invalid_argument *)
  match Moml.of_string {|<entity name="w"><entity name="a&#xD800;b"/></entity>|} with
  | Error (Moml.Xml _) -> ()
  | _ -> Alcotest.fail "expected an Xml error for &#xD800;"

let test_workflow_errors_propagate () =
  (* Cycle a -> b -> a. *)
  let doc =
    {|<entity name="w"><entity name="a"/><entity name="b"/>
      <relation name="r0"/><link port="a.out" relation="r0"/><link port="b.in" relation="r0"/>
      <relation name="r1"/><link port="b.out" relation="r1"/><link port="a.in" relation="r1"/>
      </entity>|}
  in
  match Moml.of_string doc with
  | Error (Moml.Spec_error (Spec.Cyclic _)) -> ()
  | _ -> Alcotest.fail "expected a Cyclic workflow error"

let test_unknown_task_in_link () =
  let doc =
    {|<entity name="w"><entity name="a"/><relation name="r"/>
      <link port="ghost.out" relation="r"/><link port="a.in" relation="r"/></entity>|}
  in
  match Moml.of_string doc with
  | Error (Moml.Spec_error (Spec.Unknown_task "ghost")) -> ()
  | _ -> Alcotest.fail "expected Unknown_task"

let test_roundtrip_figure1 () =
  let _, view = Examples.figure1 () in
  let spec', view' = ok (Moml.of_string (Moml.to_string view)) in
  check_int "tasks preserved" 12 (Spec.n_tasks spec');
  check_int "deps preserved" 12 (Spec.n_dependencies spec');
  check_int "composites preserved" 7 (View.n_composites view');
  (* Same partition by names. *)
  List.iter
    (fun c ->
      let name = View.composite_name view c in
      let c' = Option.get (View.composite_of_name view' name) in
      Alcotest.(check (list string))
        (Printf.sprintf "members of %s" name)
        (List.map (Spec.task_name (View.spec view)) (View.members view c))
        (List.map (Spec.task_name spec') (View.members view' c')))
    (View.composites view)

let test_spec_to_string () =
  let spec, _ = Examples.figure1 () in
  let spec', view' = ok (Moml.of_string (Moml.spec_to_string spec)) in
  check_int "tasks" 12 (Spec.n_tasks spec');
  check_int "singleton view" 12 (View.n_composites view')

let test_file_io () =
  let _, view = Examples.figure3 () in
  let path = Filename.temp_file "wolves" ".moml" in
  (match Moml.save path view with
   | Ok () -> ()
   | Error e -> Alcotest.failf "save: %a" Moml.pp_error e);
  let spec', view' = ok (Moml.load path) in
  Sys.remove path;
  check_int "tasks" 14 (Spec.n_tasks spec');
  check_int "composites" 3 (View.n_composites view');
  match Moml.load "/nonexistent/wolves.moml" with
  | Error (Moml.Structure _) -> ()
  | _ -> Alcotest.fail "expected a Structure error for a missing file"

(* Round-trip property over generated workflows and views. *)

let test_declared_ports_and_fanout () =
  (* Ptolemy-style document: declared ports with direction properties and a
     fan-out relation (one source port, two destinations). *)
  let doc =
    {|<?xml version="1.0"?>
<entity name="ptolemy" class="ptolemy.actor.TypedCompositeActor">
  <entity name="Ramp" class="ptolemy.actor.lib.Ramp">
    <port name="output" class="ptolemy.actor.TypedIOPort"><property name="output"/></port>
  </entity>
  <entity name="Scale" class="ptolemy.actor.lib.Scale">
    <port name="input" class="ptolemy.actor.TypedIOPort"><property name="input"/></port>
    <port name="result" class="ptolemy.actor.TypedIOPort"><property name="output"/></port>
  </entity>
  <entity name="Display" class="ptolemy.actor.lib.Display">
    <port name="input" class="ptolemy.actor.TypedIOPort"><property name="input"/></port>
  </entity>
  <entity name="Logger" class="ptolemy.actor.lib.Recorder">
    <port name="input" class="ptolemy.actor.TypedIOPort"><property name="input"/></port>
  </entity>
  <relation name="r0" class="ptolemy.actor.TypedIORelation"/>
  <link port="Ramp.output" relation="r0"/>
  <link port="Scale.input" relation="r0"/>
  <relation name="r1" class="ptolemy.actor.TypedIORelation"/>
  <link port="Scale.result" relation="r1"/>
  <link port="Display.input" relation="r1"/>
  <link port="Logger.input" relation="r1"/>
</entity>|}
  in
  let spec, view = ok (Moml.of_string doc) in
  check_int "four actors" 4 (Spec.n_tasks spec);
  (* r1 fans out: Scale -> Display and Scale -> Logger. *)
  check_int "three dependencies" 3 (Spec.n_dependencies spec);
  check_bool "fan-out to Display" true
    (Spec.depends spec (Spec.task_of_name_exn spec "Scale")
       (Spec.task_of_name_exn spec "Display"));
  check_bool "fan-out to Logger" true
    (Spec.depends spec (Spec.task_of_name_exn spec "Scale")
       (Spec.task_of_name_exn spec "Logger"));
  check_int "singleton view" 4 (View.n_composites view)

let test_declared_ports_in_composites () =
  (* Ports declared on tasks inside a composite entity also resolve. *)
  let doc =
    {|<entity name="w">
  <entity name="Stage" class="wolves.CompositeActor">
    <entity name="a"><port name="o"><property name="output"/></port></entity>
    <entity name="b"><port name="i"><property name="input"/></port></entity>
  </entity>
  <relation name="r"/>
  <link port="a.o" relation="r"/>
  <link port="b.i" relation="r"/>
</entity>|}
  in
  let spec, view = ok (Moml.of_string doc) in
  check_bool "edge a->b" true
    (Spec.depends spec (Spec.task_of_name_exn spec "a")
       (Spec.task_of_name_exn spec "b"));
  check_int "one composite" 1 (View.n_composites view)

let roundtrip_prop =
  QCheck2.Test.make ~name:"MoML round-trips generated views" ~count:100
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 4 40) (int_range 1 6))
    (fun (seed, size, k) ->
      let family = List.nth Gen.all_families (seed mod 4) in
      let spec = Gen.generate family ~seed ~size in
      let view = Views.build ~seed (Views.Connected_groups k) spec in
      match Moml.of_string (Moml.to_string view) with
      | Error _ -> false
      | Ok (spec', view') ->
        Spec.n_tasks spec' = Spec.n_tasks spec
        && Spec.n_dependencies spec' = Spec.n_dependencies spec
        && View.n_composites view' = View.n_composites view
        && List.for_all
             (fun c ->
               let name = View.composite_name view c in
               match View.composite_of_name view' name with
               | None -> false
               | Some c' ->
                 List.map (Spec.task_name spec) (View.members view c)
                 = List.map (Spec.task_name spec') (View.members view' c'))
             (View.composites view)
        (* Dependencies survive by name. *)
        && List.for_all
             (fun (u, v) ->
               Wolves_graph.Digraph.mem_edge (Spec.graph spec')
                 (Spec.task_of_name_exn spec' (Spec.task_name spec u))
                 (Spec.task_of_name_exn spec' (Spec.task_name spec v)))
             (Wolves_graph.Digraph.edges (Spec.graph spec)))

let moml_fuzz =
  QCheck2.Test.make ~name:"MoML parser total on random bytes" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 150))
    (fun input ->
      match Moml.of_string input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* The DOM reader the one-pass reader replaced: [Parse.document], then a walk
   of the tree. It is kept as the reference [Moml.of_string] must match
   (test_xml checks [Parse.document] against the parser it replaced). *)
module Reference = struct
  module Ast = Wolves_xml.Ast
  module Parse = Wolves_xml.Parse

  exception Fail of Moml.error

  let structure fmt = Format.kasprintf (fun msg -> raise (Fail (Moml.Structure msg))) fmt

  let name_of e tag_context =
    match Ast.attr e "name" with
    | Some n -> n
    | None -> structure "<%s> without a name attribute (%s)" e.Ast.tag tag_context

  let split_port port =
    match String.rindex_opt port '.' with
    | None -> structure "port %S has no .in/.out suffix" port
    | Some i ->
      let task = String.sub port 0 i in
      let dir = String.sub port (i + 1) (String.length port - i - 1) in
      (match dir with
       | "in" | "out" -> (task, dir)
       | _ -> structure "port %S must end in .in or .out" port)

  let is_entity (e : Ast.element) = e.Ast.tag = "entity"

  let port_direction (port : Ast.element) port_name task_name =
    let has name =
      List.exists
        (fun p -> Ast.attr p "name" = Some name)
        (Ast.children_named port "property")
    in
    match (has "input", has "output") with
    | true, false -> "in"
    | false, true -> "out"
    | true, true ->
      structure "port %S of %S is both input and output (unsupported)" port_name
        task_name
    | false, false ->
      structure "port %S of %S declares no direction (add <property name=\"input\"/> or \"output\")"
        port_name task_name

  let parse_root root =
    if root.Ast.tag <> "entity" then
      structure "root element must be <entity>, found <%s>" root.Ast.tag;
    let workflow_name = name_of root "root" in
    let groups = ref [] in
    let tasks = ref [] in
    let add_group name members = groups := (name, members) :: !groups in
    let ports = Hashtbl.create 32 in
    let attrs = ref [] in
    let add_task_attrs entity task_name =
      List.iter
        (fun prop ->
          match (Ast.attr prop "name", Ast.attr prop "value") with
          | Some key, Some value -> attrs := (task_name, key, value) :: !attrs
          | _ -> ())
        (Ast.children_named entity "property")
    in
    let add_task_ports entity task_name =
      List.iter
        (fun port ->
          let pname = name_of port "port" in
          if Hashtbl.mem ports (task_name, pname) then
            structure "duplicate port %S on %S" pname task_name;
          Hashtbl.replace ports (task_name, pname)
            (port_direction port pname task_name))
        (Ast.children_named entity "port")
    in
    let add_task ?entity name =
      tasks := name :: !tasks;
      Option.iter
        (fun e ->
          add_task_ports e name;
          add_task_attrs e name)
        entity;
      name
    in
    List.iter
      (function
        | Ast.Element child when is_entity child ->
          let child_name = name_of child "top-level entity" in
          let grandchildren = Ast.children_named child "entity" in
          if grandchildren = [] then
            add_group child_name [ add_task ~entity:child child_name ]
          else begin
            List.iter
              (fun grand ->
                if Ast.children_named grand "entity" <> [] then
                  structure
                    "entity %S nests deeper than composite/atomic (two levels)"
                    (name_of grand "nested entity"))
              grandchildren;
            add_group child_name
              (List.map
                 (fun grand ->
                   add_task ~entity:grand (name_of grand "atomic task"))
                 grandchildren)
          end
        | Ast.Element _ | Ast.Text _ -> ())
      root.Ast.children;
    let relations = Hashtbl.create 32 in
    List.iter
      (fun rel ->
        let n = name_of rel "relation" in
        if Hashtbl.mem relations n then structure "duplicate relation %S" n;
        Hashtbl.replace relations n [])
      (Ast.children_named root "relation");
    List.iter
      (fun link ->
        let port =
          match Ast.attr link "port" with
          | Some p -> p
          | None -> structure "<link> without a port attribute"
        in
        let rel =
          match Ast.attr link "relation" with
          | Some r -> r
          | None -> structure "<link> without a relation attribute"
        in
        match Hashtbl.find_opt relations rel with
        | None -> structure "link references unknown relation %S" rel
        | Some links ->
          let task, direction =
            match String.rindex_opt port '.' with
            | Some i ->
              let t = String.sub port 0 i in
              let p = String.sub port (i + 1) (String.length port - i - 1) in
              (match Hashtbl.find_opt ports (t, p) with
               | Some dir -> (t, dir)
               | None ->
                 let t', dir = split_port port in
                 (t', dir))
            | None -> split_port port
          in
          Hashtbl.replace relations rel ((task, direction) :: links))
      (Ast.children_named root "link");
    let deps =
      Hashtbl.fold
        (fun rel links acc ->
          let outs = List.filter (fun (_, d) -> d = "out") links in
          let ins = List.filter (fun (_, d) -> d = "in") links in
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
      |> List.sort compare
      |> List.map (fun (_, p, c) -> (p, c))
    in
    (workflow_name, List.rev !tasks, List.rev !groups, deps, List.rev !attrs)

  let of_string text : (Spec.t * View.t, Moml.error) result =
    match Parse.document text with
    | Error e -> Error (Moml.Xml e)
    | Ok root ->
      (try
         let name, tasks, groups, deps, attrs = parse_root root in
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
             (match
                step (fun (p, c) -> Spec.Builder.add_dependency b p c) deps
              with
              | Error e -> Error e
              | Ok () ->
                (match
                   step
                     (fun (task, key, value) ->
                       Spec.Builder.set_attr b task ~key value)
                     attrs
                 with
                 | Error e -> Error e
                 | Ok () -> Spec.Builder.finish b))
         in
         (match built with
          | Error e -> Error (Moml.Spec_error e)
          | Ok spec ->
            (match View.make spec groups with
             | Error e -> Error (Moml.View_error e)
             | Ok view -> Ok (spec, view)))
       with Fail e -> Error e)
end

(* What a reader's answer says: the workflow name; every task in numbering
   order with its consumers and producers in adjacency order and its
   attributes; every composite with its members. A rejection is its
   message. *)
let outcome = function
  | Error e -> Error (Format.asprintf "%a" Moml.pp_error e)
  | Ok (spec, view) ->
    let name = Spec.task_name spec in
    Ok
      ( Spec.name spec,
        List.map
          (fun t ->
            ( name t,
              List.map name (Spec.consumers spec t),
              List.map name (Spec.producers spec t),
              Spec.attrs spec t ))
          (Spec.tasks spec),
        List.map
          (fun c -> (View.composite_name view c, List.map name (View.members view c)))
          (View.composites view) )

(* When several relations lack a source or a destination, the one named is
   the first in the relation table's fold order: the table must be filled
   as the reference fills it. *)
let test_endpoint_error_relation () =
  List.iter
    (fun n ->
      let relations =
        String.concat ""
          (List.init n (fun i ->
               Printf.sprintf "<relation name=\"rel%d\"/><link port=\"a.%s\" relation=\"rel%d\"/>" i
                 (if i mod 2 = 0 then "out" else "in") i))
      in
      let doc = Printf.sprintf "<entity name=\"w\"><entity name=\"a\"/>%s</entity>" relations in
      match (outcome (Moml.of_string doc), outcome (Reference.of_string doc)) with
      | Error got, Error expected -> Alcotest.(check string) (Printf.sprintf "%d relations" n) expected got
      | _ -> Alcotest.failf "%d relations: expected both readers to reject" n)
    [ 2; 3; 7; 20; 33; 64; 65; 150; 400 ]

(* Dependencies reach the builder sorted as (relation, producer, consumer),
   so the first one it rejects (an undeclared task, a self-dependency) is the
   same for both readers. *)
let test_dependency_order () =
  let doc ends =
    Printf.sprintf
      "<entity name=\"w\"><entity name=\"a\"/><entity name=\"b\"/><entity name=\"c\"/><relation name=\"r\"/>%s</entity>"
      (String.concat ""
         (List.map (fun e -> Printf.sprintf "<link port=\"%s\" relation=\"r\"/>" e) ends))
  in
  List.iter
    (fun ends ->
      let d = doc ends in
      Alcotest.(check bool) (String.concat " " ends) true
        (outcome (Moml.of_string d) = outcome (Reference.of_string d)))
    [ [ "b.out"; "ghost.out"; "a.in"; "b.in" ];
      [ "ghost.out"; "b.out"; "b.in"; "a.in" ];
      [ "c.out"; "a.out"; "zz.in"; "a.in"; "c.in" ];
      [ "a.out"; "b.out"; "c.in"; "b.in"; "a.in" ] ]

(* QCHECK_LONG=1 runs 30,000 documents, about 22,500 of them mutated. *)
let reader_matches_reference =
  QCheck2.Test.make ~name:"one-pass reader = DOM reader (workflows and errors)"
    ~count:1000 ~long_factor:30 ~print:String.escaped
    QCheck2.Gen.(frequency [ (1, Moml_corpus.document); (3, Moml_corpus.mutated) ])
    (fun doc -> outcome (Moml.of_string doc) = outcome (Reference.of_string doc))

let () =
  Alcotest.run "wolves_moml"
    [ ( "parse",
        [ Alcotest.test_case "sample document" `Quick test_parse_sample;
          Alcotest.test_case "structural errors" `Quick test_parse_errors;
          Alcotest.test_case "xml errors surfaced" `Quick test_bad_xml_reported;
          Alcotest.test_case "workflow errors surfaced" `Quick
            test_workflow_errors_propagate;
          Alcotest.test_case "unknown task in link" `Quick test_unknown_task_in_link;
          Alcotest.test_case "declared ports and fan-out" `Quick
            test_declared_ports_and_fanout;
          Alcotest.test_case "ports inside composites" `Quick
            test_declared_ports_in_composites ] );
      ( "print",
        [ Alcotest.test_case "figure 1 round trip" `Quick test_roundtrip_figure1;
          Alcotest.test_case "bare specification" `Quick test_spec_to_string;
          Alcotest.test_case "file save/load" `Quick test_file_io;
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest moml_fuzz ] );
      ( "equiv",
        [ Alcotest.test_case "endpoint error names the same relation" `Quick
            test_endpoint_error_relation;
          Alcotest.test_case "dependency order decides the first error" `Quick
            test_dependency_order;
          QCheck_alcotest.to_alcotest reader_matches_reference ] ) ]
