(* MoML documents for the reader-equivalence properties of test_xml and
   test_moml: generated workflows and views written by [Moml.to_string],
   hand-built documents with the constructs that writer never emits
   (declared ports, properties without values, atomic top-level entities,
   nesting three levels deep, comments and CDATA), and mutations of both. *)

open Wolves_workflow
module Moml = Wolves_moml.Moml
module Generate = Wolves_workload.Generate
module Templates = Wolves_workload.Templates
module Views = Wolves_workload.Views

(* Rebuild [spec] with a few attributes, some of whose values need escaping,
   and carry [view]'s grouping over to the new specification. *)
let with_attrs ~seed view =
  let spec = View.spec view in
  let b = Spec.Builder.create ~name:(Spec.name spec) () in
  let name = Spec.task_name spec in
  List.iter (fun t -> ignore (Spec.Builder.add_task_exn b (name t))) (Spec.tasks spec);
  List.iter
    (fun (u, v) -> Spec.Builder.add_dependency_exn b (name u) (name v))
    (Wolves_graph.Digraph.edges (Spec.graph spec));
  let values = [| "1.5"; "a&b"; "<x>"; "q\"uote"; "" |] in
  List.iter
    (fun t ->
      if (t + seed) mod 3 = 0 then
        Spec.Builder.set_attr_exn b (name t) ~key:"duration"
          values.((t + seed) mod Array.length values);
      if (t + seed) mod 5 = 0 then Spec.Builder.set_attr_exn b (name t) ~key:"class" "x.Y")
    (Spec.tasks spec);
  let spec' = Spec.Builder.finish_exn b in
  View.make_exn spec'
    (List.map
       (fun c -> (View.composite_name view c, List.map name (View.members view c)))
       (View.composites view))

(* A generated workflow — one of the four families or the four Pegasus
   suites — under a generated or natural view, written as MoML. *)
let generated =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 and* kind = int_range 0 7 and* k = int_range 1 6 in
  let view =
    if kind < 4 then begin
      let family = List.nth Generate.all_families kind in
      let spec = Generate.generate family ~seed ~size:(4 + (seed mod 28)) in
      let policy =
        match seed mod 3 with
        | 0 -> Views.Connected_groups k
        | 1 -> Views.Topological_bands k
        | _ -> Views.Random_partition k
      in
      Views.build ~seed policy spec
    end
    else begin
      let suite = List.nth Templates.all_suites (kind - 4) in
      let spec = Templates.generate suite ~scale:(1 + (seed mod 4)) in
      if seed mod 2 = 0 then Templates.natural_view suite spec
      else Views.build ~seed (Views.Connected_groups k) spec
    end
  in
  return
    (if seed mod 4 = 0 then Moml.spec_to_string (View.spec (with_attrs ~seed view))
     else Moml.to_string (with_attrs ~seed view))

(* A hand-built document over tasks t0..tn: composites and atomic top-level
   entities; declared ports (i an input, o an output, and now and then a
   port with both directions, with none, or a name used twice); properties
   with and without values; relations, most from one task's .out to later
   tasks' .in, some with up to four ends of any kind (declared ports, bad
   suffixes, an undeclared task); now and then an entity nested too deep or
   one composite name used for every composite, or a root that is not an
   entity; comments, CDATA and references. *)
let handbuilt =
  let open QCheck2.Gen in
  let port (pname, dirs) =
    Printf.sprintf "<port name=\"%s\">%s</port>" pname
      (String.concat "" (List.map (Printf.sprintf "<property name=\"%s\"/>") dirs))
  in
  let ports =
    frequency
      [ (6, return []); (3, return [ ("i", [ "input" ]) ]); (3, return [ ("o", [ "output" ]) ]);
        (3, return [ ("i", [ "input" ]); ("o", [ "output" ]) ]);
        ( 1,
          oneofl
            [ [ ("p", [ "input"; "output" ]) ]; [ ("p", []) ];
              [ ("o", [ "output" ]); ("o", [ "input" ]) ] ] ) ]
  in
  let property =
    let+ key = oneofl [ "duration"; "k"; "class" ]
    and+ value = option (oneofl [ "1"; "a&amp;b"; "&#65;x"; "" ]) in
    match value with
    | Some v -> Printf.sprintf "<property name=\"%s\" value=\"%s\"/>" key v
    | None -> Printf.sprintf "<property name=\"%s\"/>" key
  in
  let task name =
    let+ ports = ports
    and+ props = list_size (int_range 0 2) property
    and+ deep = frequency [ (30, return false); (1, return true) ]
    and+ noise = frequency [ (6, return ""); (1, return "<!-- c -->"); (1, return "<![CDATA[x]]>") ] in
    Printf.sprintf "<entity name=\"%s\" class=\"a.B\">%s%s%s%s</entity>" name
      (String.concat "" (List.map port ports)) noise (String.concat "" props)
      (if deep then "<entity name=\"deep\"/>" else "")
  in
  let* n = int_range 1 7 in
  let name = Printf.sprintf "t%d" in
  let names = List.init n name in
  let* tasks = flatten_l (List.map task names) in
  let* cuts = list_repeat n bool in
  (* Consecutive tasks share a composite until a cut; a lone task whose
     group is cut on both sides stands at the top level. *)
  let groups =
    let rec go acc current = function
      | [], [] -> List.rev (if current = [] then acc else List.rev current :: acc)
      | t :: ts, cut :: cs ->
        if cut && current <> [] then go (List.rev current :: acc) [ t ] (ts, cs)
        else go acc (t :: current) (ts, cs)
      | _ -> assert false
    in
    go [] [] (tasks, cuts)
  in
  let* atomic_singletons = bool in
  let* one_name = frequency [ (12, return false); (1, return true) ] in
  let top =
    List.mapi
      (fun i members ->
        match members with
        | [ t ] when atomic_singletons -> t
        | _ ->
          Printf.sprintf "<entity name=\"c%d\" class=\"a.Composite\">%s</entity>"
            (if one_name then 0 else i)
            (String.concat "\n" members))
      groups
  in
  let endpoint =
    let+ task = frequency [ (8, oneofl names); (1, return "ghost") ]
    and+ suffix = frequency [ (3, return "out"); (3, return "in"); (2, oneofl [ "i"; "o"; "p" ]); (1, return "x") ] in
    task ^ "." ^ suffix
  in
  let ends =
    frequency
      [ ( 3,
          let* p = int_range 0 (n - 1) in
          let+ consumers = list_size (int_range 1 3) (int_range 0 (n - 1)) in
          (name p ^ ".out")
          :: List.filter_map
               (fun c -> if c > p then Some (name c ^ ".in") else None)
               consumers );
        (1, list_size (int_range 1 4) endpoint) ]
  in
  let relation i =
    let+ ends = ends in
    Printf.sprintf "<relation name=\"r%d\"/>%s" i
      (String.concat ""
         (List.map (fun e -> Printf.sprintf "<link port=\"%s\" relation=\"r%d\"/>" e i) ends))
  in
  let* r = int_range 0 4 in
  let* relations = flatten_l (List.init r relation) in
  let+ root = frequency [ (30, return "entity"); (1, return "workflow") ] in
  Printf.sprintf
    "<?xml version=\"1.0\"?>\n<%s name=\"w\" class=\"a.W\">\n%s\n%s\n<property name=\"director\" value=\"d\"/>\n</%s>\n"
    root (String.concat "\n" top) (String.concat "\n" relations) root

let document = QCheck2.Gen.(frequency [ (3, generated); (2, handbuilt) ])

(* Fragments that mean something to a MoML reader, inserted at a tag
   boundary so that most mutants stay well formed XML. *)
let snippets =
  [| "<entity name=\"x\"/>"; "<entity name=\"t0\"/>"; "<entity name=\"c0\"/>"; "<entity/>";
     "<entity name=\"n\"><entity name=\"m\"/></entity>";
     "<port name=\"p\"><property name=\"output\"/></port>"; "<port name=\"q\"/>";
     "<port/>"; "<link port=\"t0.out\" relation=\"r0\"/>";
     "<link port=\"t1.in\" relation=\"r0\"/>"; "<link relation=\"r0\"/>";
     "<link port=\"t0.out\"/>"; "<link port=\"nowhere.in\" relation=\"r9\"/>";
     "<relation name=\"r0\"/>"; "<relation name=\"rx\"/>"; "<relation/>";
     "<property name=\"k\" value=\"v\"/>"; "<property name=\"input\"/>";
     "&amp;"; "&#65;"; "&bogus;"; "&#xD800;"; "&lt"; "<!-- c -->";
     "<![CDATA[<x>]]>"; "</entity>" |]

let next_tag doc i =
  match String.index_from_opt doc i '<' with Some j -> j | None -> String.length doc

let mutate doc =
  let open QCheck2.Gen in
  let n = String.length doc in
  let* at = int_range 0 (max 0 n) in
  let at = min at n in
  let splice i j insert = String.sub doc 0 i ^ insert ^ String.sub doc j (n - j) in
  frequency
    [ (2, return (if n = 0 then doc else splice at (min n (at + 1)) ""));
      (1, let+ len = int_range 1 12 in splice at (min n (at + len)) "");
      (2, let+ c = char in splice at at (String.make 1 c));
      (1, let+ c = oneofl [ '<'; '>'; '"'; '/'; '&'; ';'; '='; ' '; '.' ] in
          splice at at (String.make 1 c));
      (4, let+ s = oneofa snippets in
          let i = next_tag doc at in
          splice i i s) ]

(* One to three mutations of a document. *)
let mutated =
  QCheck2.Gen.(
    let* doc = document and* k = int_range 1 3 in
    let rec go doc k = if k = 0 then return doc else mutate doc >>= fun d -> go d (k - 1) in
    go doc k)
