open Wolves_workflow
module D = Diagnostic
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module Wfdsl = Wolves_lang.Wfdsl
module Metrics = Wolves_obs.Metrics
module Flow = Wolves_analysis.Flow
module Annot = Wolves_analysis.Annot

type layer =
  | Spec_level
  | View_level
  | Dsl_level

let layer_name = function
  | Spec_level -> "spec"
  | View_level -> "view"
  | Dsl_level -> "dsl"

type meta = {
  id : string;
  layer : layer;
  severity : D.severity;
  doc : string;
  fixable : bool;
}

type target = {
  view : View.t;
  file : string option;
  source : Wfdsl.source_map option;
}

(* --- shared analysis context --- *)

type ctx = {
  t : target;
  spec : Spec.t;
  reach : Wolves_graph.Reach.t;
  report : S.report Lazy.t;  (* Prop 2.1 validation, shared by view rules *)
  flow : Flow.t Lazy.t;  (* fine-grained dependency flow (annotation rules) *)
  annot_issues : Annot.issue list Lazy.t;
  inference : Annot.result Lazy.t;
  fan_threshold : int;
}

(* Source-map position resolution. Implicit singleton composites fall back
   to their member's declaration site. *)

let task_pos ctx name =
  Option.bind ctx.t.source (fun src ->
      List.assoc_opt name src.Wfdsl.task_decls)

let composite_pos ctx c =
  match ctx.t.source with
  | None -> None
  | Some src ->
    let name = View.composite_name ctx.t.view c in
    (match List.assoc_opt name src.Wfdsl.composite_decls with
     | Some p -> Some p
     | None ->
       (match View.members ctx.t.view c with
        | [ single ] -> task_pos ctx (Spec.task_name ctx.spec single)
        | _ -> None))

let edge_pos ctx pair =
  Option.bind ctx.t.source (fun src ->
      List.assoc_opt pair src.Wfdsl.edge_occurrences)

let deps_decl_pos ctx task =
  Option.bind ctx.t.source (fun src ->
      List.assoc_opt task src.Wfdsl.deps_decls)

let deps_entry_pos ctx pair =
  Option.bind ctx.t.source (fun src ->
      List.assoc_opt pair src.Wfdsl.deps_entries)

let workflow_pos ctx =
  Option.map (fun src -> src.Wfdsl.workflow_position) ctx.t.source

let to_position = function
  | None -> None
  | Some p ->
    Some { D.line = p.Wfdsl.pos_line; column = p.Wfdsl.pos_column }

let loc ctx anchor =
  let position =
    match anchor with
    | D.Task name -> task_pos ctx name
    | D.Composite name ->
      (match View.composite_of_name ctx.t.view name with
       | Some c -> composite_pos ctx c
       | None -> None)
    | D.Edge (a, b) -> edge_pos ctx (a, b)
    | D.Workflow _ -> workflow_pos ctx
  in
  { D.file = ctx.t.file; position = to_position position; anchor }

let related ctx anchor note = { D.r_location = loc ctx anchor; note }

let task_name ctx t = Spec.task_name ctx.spec t

(* Is the task a member of an explicit [composite] block of the source
   document (as opposed to an implicit singleton)? *)
let in_explicit_composite ctx t =
  match ctx.t.source with
  | None -> false
  | Some src ->
    List.exists
      (fun (name, _) ->
        match View.composite_of_name ctx.t.view name with
        | Some c -> List.mem t (View.members ctx.t.view c)
        | None -> false)
      src.Wfdsl.composite_decls

let has_no_edges ctx t =
  Spec.producers ctx.spec t = [] && Spec.consumers ctx.spec t = []

(* A task is "unused" (DSL layer) when it is declared but appears in no
   dependency statement and no explicit composite block. *)
let is_unused ctx t =
  ctx.t.source <> None && has_no_edges ctx t
  && not (in_explicit_composite ctx t)

(* --- spec-level rules --- *)

(* Orphan tasks: no producers and no consumers. When the DSL rule
   [dsl/unused-task] already covers the task (declared and referenced
   nowhere at all), this rule stays quiet — one diagnostic per defect. *)
let check_orphan ctx =
  if Spec.n_tasks ctx.spec < 2 then []
  else
    List.filter_map
      (fun t ->
        if has_no_edges ctx t && not (is_unused ctx t) then
          let name = task_name ctx t in
          Some
            { D.rule = "spec/orphan-task";
              severity = D.Warning;
              location = loc ctx (D.Task name);
              message =
                Printf.sprintf
                  "task %S has no dependencies in either direction; it is \
                   disconnected from the rest of the workflow"
                  name;
              related = [];
              fix = None }
        else None)
      (Spec.tasks ctx.spec)

(* Redundant transitive edges: u -> v with another path u ~> w ~> v. The
   fix (dropping the edge) never changes reachability, hence never changes
   any soundness verdict. *)
let check_redundant_edge ctx =
  let g = Spec.graph ctx.spec in
  Wolves_graph.Digraph.fold_edges
    (fun u v acc ->
      let witness =
        List.fold_left
          (fun best w ->
            if w <> v && Wolves_graph.Reach.reaches ctx.reach w v then
              match best with
              | Some b when b <= w -> best
              | _ -> Some w
            else best)
          None (Wolves_graph.Digraph.succ g u)
      in
      match witness with
      | None -> acc
      | Some w ->
        let un = task_name ctx u and vn = task_name ctx v in
        let wn = task_name ctx w in
        { D.rule = "spec/redundant-edge";
          severity = D.Warning;
          location = loc ctx (D.Edge (un, vn));
          message =
            Printf.sprintf
              "dependency %S -> %S is redundant: the path through %S \
               already implies it"
              un vn wn;
          related = [ related ctx (D.Task wn) "intermediate task" ];
          fix = Some (D.Drop_edge (un, vn)) }
        :: acc)
    g []
  |> List.rev

(* Weakly-connected components of ≥ 2 tasks; two or more of them means the
   document glues unrelated pipelines together. Lone orphan tasks are the
   orphan rule's business, not this one's. *)
let check_disconnected ctx =
  let n = Spec.n_tasks ctx.spec in
  if n = 0 then []
  else begin
    let comp = Array.make n (-1) in
    let g = Spec.graph ctx.spec in
    let next = ref 0 in
    for s = 0 to n - 1 do
      if comp.(s) < 0 then begin
        let id = !next in
        incr next;
        let stack = ref [ s ] in
        comp.(s) <- id;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | u :: rest ->
            stack := rest;
            List.iter
              (fun v ->
                if comp.(v) < 0 then begin
                  comp.(v) <- id;
                  stack := v :: !stack
                end)
              (Wolves_graph.Digraph.succ g u @ Wolves_graph.Digraph.pred g u)
        done
      end
    done;
    let sizes = Array.make !next 0 in
    let representative = Array.make !next max_int in
    Array.iteri
      (fun t id ->
        sizes.(id) <- sizes.(id) + 1;
        if t < representative.(id) then representative.(id) <- t)
      comp;
    let big =
      List.filter (fun id -> sizes.(id) >= 2)
        (List.init !next (fun id -> id))
    in
    if List.length big < 2 then []
    else
      [ { D.rule = "spec/disconnected";
          severity = D.Warning;
          location = loc ctx (D.Workflow (Spec.name ctx.spec));
          message =
            Printf.sprintf
              "the dependency graph splits into %d disconnected pipelines \
               (no dataflow between them); consider separate workflows"
              (List.length big);
          related =
            List.map
              (fun id ->
                related ctx
                  (D.Task (task_name ctx representative.(id)))
                  (Printf.sprintf "pipeline of %d tasks" sizes.(id)))
              big;
          fix = None } ]
  end

(* Suspicious hubs: fan-in or fan-out at or above the threshold. High fan
   degrees are where view designers tend to group independent branches —
   the dominant unsoundness mistake. *)
let check_fan_bottleneck ctx =
  List.filter_map
    (fun t ->
      let fan_in = List.length (Spec.producers ctx.spec t) in
      let fan_out = List.length (Spec.consumers ctx.spec t) in
      if fan_in < ctx.fan_threshold && fan_out < ctx.fan_threshold then None
      else
        let name = task_name ctx t in
        let side, degree =
          if fan_in >= fan_out then ("fan-in", fan_in) else ("fan-out", fan_out)
        in
        Some
          { D.rule = "spec/fan-bottleneck";
            severity = D.Hint;
            location = loc ctx (D.Task name);
            message =
              Printf.sprintf
                "task %S has %s %d (threshold %d): a likely bottleneck, and \
                 grouping its branches into one composite is the classic \
                 unsoundness mistake"
                name side degree ctx.fan_threshold;
            related = [];
            fix = None })
    (Spec.tasks ctx.spec)

(* Annotation diagnostics anchor at the deps entry (or block) when the
   source map knows it, falling back to the generic anchor resolution. *)
let loc_at ctx anchor pos =
  match pos with
  | Some p ->
    { D.file = ctx.t.file; position = to_position (Some p); anchor }
  | None -> loc ctx anchor

(* Inconsistent dependency annotations: entries naming non-neighbours or
   re-declaring an output (Bowers et al. validation). The analyses ignore
   the bad references, so an inconsistent annotation silently means
   something other than what its author wrote — hence an error. *)
let check_annotation_inconsistent ctx =
  List.filter_map
    (fun issue ->
      if not (Annot.is_inconsistency issue) then None
      else
        let task, output =
          match issue with
          | Annot.Not_an_output { task; output }
          | Annot.Not_an_input { task; output; _ }
          | Annot.Duplicate_output { task; output }
          | Annot.Missing_output { task; output } -> (task, output)
        in
        let tname = task_name ctx task in
        let pos =
          match deps_entry_pos ctx (tname, task_name ctx output) with
          | Some p -> Some p
          | None -> deps_decl_pos ctx tname
        in
        Some
          { D.rule = "spec/annotation-inconsistent";
            severity = D.Error;
            location = loc_at ctx (D.Task tname) pos;
            message =
              Format.asprintf "%a (the analyses ignore the bad reference)"
                (Annot.pp_issue ctx.spec) issue;
            related = [];
            fix = None })
    (Lazy.force ctx.annot_issues)

(* Incomplete dependency annotations: an annotated task leaves some output
   without an entry, silently falling back to "all inputs". One diagnostic
   per task, fixed by inserting the inferred minimal entries. *)
let check_annotation_incomplete ctx =
  let missing_by_task = Hashtbl.create 8 in
  List.iter
    (function
      | Annot.Missing_output { task; output } ->
        let prev =
          try Hashtbl.find missing_by_task task with Not_found -> []
        in
        Hashtbl.replace missing_by_task task (output :: prev)
      | _ -> ())
    (Lazy.force ctx.annot_issues);
  if Hashtbl.length missing_by_task = 0 then []
  else begin
    let inference = Lazy.force ctx.inference in
    List.filter_map
      (fun task ->
        match Hashtbl.find_opt missing_by_task task with
        | None -> None
        | Some outputs ->
          let outputs = List.rev outputs in
          let tname = task_name ctx task in
          let inferred =
            List.find_opt
              (fun i -> i.Annot.inf_task = task)
              inference.Annot.inferred
          in
          let fix =
            Option.map
              (fun i ->
                D.Add_annotation
                  ( tname,
                    List.map
                      (fun (o, ins) ->
                        ( task_name ctx o,
                          List.map (task_name ctx) ins ))
                      i.Annot.inf_entries ))
              inferred
          in
          Some
            { D.rule = "spec/annotation-incomplete";
              severity = D.Warning;
              location =
                loc_at ctx (D.Task tname) (deps_decl_pos ctx tname);
              message =
                Printf.sprintf
                  "task %S is annotated but %d of its outputs (%s) have no \
                   entry and silently fall back to \"all inputs\""
                  tname (List.length outputs)
                  (String.concat ", "
                     (List.map
                        (fun o -> Printf.sprintf "%S" (task_name ctx o))
                        outputs));
              related =
                List.map
                  (fun o ->
                    related ctx
                      (D.Edge (tname, task_name ctx o))
                      "output without an entry")
                  outputs;
              fix })
      (Spec.tasks ctx.spec)
  end

(* Dead data: edges whose item provably never influences any terminal
   output under the declared annotations — the producer's work on that
   channel is wasted. Only meaningful once annotations exist (without
   them every edge is trivially live). *)
let check_dead_data ctx =
  if not (Spec.has_annotations ctx.spec) then []
  else
    let flow = Lazy.force ctx.flow in
    List.map
      (fun (p, c) ->
        let pn = task_name ctx p and cn = task_name ctx c in
        { D.rule = "spec/dead-data";
          severity = D.Warning;
          location = loc ctx (D.Edge (pn, cn));
          message =
            Printf.sprintf
              "the data %S sends %S can never influence a terminal output \
               under the declared annotations: the dependency carries dead \
               data"
              pn cn;
          related =
            [ related ctx (D.Task cn)
                "consumer whose annotated outputs never draw on this input" ];
          fix = None })
      (Flow.dead_edges flow)

(* --- view-level rules --- *)

(* Unsound composites (Prop 2.1): reported with the composite's lane
   class, its minimal unsound core and one witness (t_in, t_out) pair taken
   from that core — the smallest explanation of the defect — all decided on
   one frame over its members. Fixed by the strong corrector. *)
let check_unsound ctx =
  let report = Lazy.force ctx.report in
  List.map
    (fun (c, _) ->
      let cname = View.composite_name ctx.t.view c in
      let fr = S.Frame.make ctx.spec (View.members ctx.t.view c) in
      let all = S.Frame.full fr in
      (* The report found the composite unsound, so it has a core, and an
         unsound core has a witness. *)
      let core = Option.get (S.Frame.minimal_core fr all) in
      let ti, to_ = Option.get (S.Frame.first_witness fr core) in
      let core_tasks = S.Frame.tasks fr core in
      let ni = task_name ctx (S.Frame.task fr ti)
      and no = task_name ctx (S.Frame.task fr to_) in
      { D.rule = "view/unsound-composite";
        severity = D.Error;
        location = loc ctx (D.Composite cname);
        message =
          Printf.sprintf
            "composite %S is unsound (%s): input %S cannot reach output %S; \
             minimal unsound core: {%s} — view-level provenance over it \
             reports spurious dependencies"
            cname
            (Format.asprintf "%a" S.pp_unsoundness_kind
               (S.kind_of_lanes (S.Frame.lanes fr all)))
            ni no
            (String.concat ", " (List.map (task_name ctx) core_tasks));
        related =
          [ related ctx (D.Task ni) "input with no path to the output";
            related ctx (D.Task no) "output the input cannot reach" ]
          @ List.map
              (fun t ->
                related ctx (D.Task (task_name ctx t))
                  "member of the minimal unsound core")
              core_tasks;
        fix = Some (D.Split_composite cname) })
    report.S.unsound

(* Degenerate composites: a singleton whose name differs from its member's,
   adding an aliasing layer without abstracting anything. Folding the name
   back onto the member makes the composite implicit in the canonical
   rendering. *)
let check_degenerate ctx =
  List.filter_map
    (fun c ->
      match View.members ctx.t.view c with
      | [ single ] ->
        let cname = View.composite_name ctx.t.view c in
        let tname = task_name ctx single in
        if cname = tname then None
        else
          let fix =
            (* Renaming must not collide with another composite. *)
            if View.composite_of_name ctx.t.view tname = None then
              Some (D.Rename_composite (cname, tname))
            else None
          in
          Some
            { D.rule = "view/degenerate-composite";
              severity = D.Warning;
              location = loc ctx (D.Composite cname);
              message =
                Printf.sprintf
                  "composite %S only aliases task %S: it hides nothing and \
                   renames one node"
                  cname tname;
              related = [ related ctx (D.Task tname) "the single member" ];
              fix }
      | _ -> None)
    (View.composites ctx.t.view)

(* Monolithic views: one composite swallowing the entire workflow. Always
   sound (the full task set is sound by definition), and useless — every
   provenance question collapses to "everything depends on everything". *)
let check_monolithic ctx =
  if View.n_composites ctx.t.view = 1 && Spec.n_tasks ctx.spec >= 2 then
    match View.composites ctx.t.view with
    | [ c ] ->
      let cname = View.composite_name ctx.t.view c in
      [ { D.rule = "view/monolithic-view";
          severity = D.Warning;
          location = loc ctx (D.Composite cname);
          message =
            Printf.sprintf
              "the single composite %S hides all %d tasks: the view answers \
               no provenance question more precisely than \"everything\""
              cname (Spec.n_tasks ctx.spec);
          related = [];
          fix = None } ]
    | _ -> []
  else []

(* Adjacent sound composites whose union is still sound (Def 2.4
   combinability): the view is not weakly locally optimal (Def 2.5) — it
   could abstract more without losing correctness. Pairs touching an
   unsound composite are skipped: splitting comes first. *)
let check_combinable ctx =
  let view = ctx.t.view in
  let report = Lazy.force ctx.report in
  let unsound =
    List.fold_left
      (fun acc (c, _) -> c :: acc)
      [] report.S.unsound
  in
  let seen = Hashtbl.create 16 in
  Wolves_graph.Digraph.fold_edges
    (fun u v acc ->
      let a = min u v and b = max u v in
      if a = b || Hashtbl.mem seen (a, b) then acc
      else begin
        Hashtbl.replace seen (a, b) ();
        if List.mem a unsound || List.mem b unsound then acc
        else if
          C.combinable ctx.spec (View.members view a) (View.members view b)
        then
          let na = View.composite_name view a
          and nb = View.composite_name view b in
          { D.rule = "view/combinable-composites";
            severity = D.Hint;
            location = loc ctx (D.Composite na);
            message =
              Printf.sprintf
                "composites %S and %S are sound-combinable (Def 2.4): \
                 merging them yields a smaller view that is still sound"
                na nb;
            related = [ related ctx (D.Composite nb) "the other half" ];
            (* A machine merge is only offered while it cannot collapse the
               view into a single all-hiding composite (which
               view/monolithic-view would immediately flag). *)
            fix =
              (if View.n_composites view > 2 then
                 Some (D.Merge_composites (na, nb))
               else None) }
          :: acc
        else acc
      end)
    (View.view_graph view) []
  |> List.rev

(* Hidden (spurious) dependencies a composite manufactures: the soundness
   criterion and view-level provenance both work on coarse task
   reachability, but fine-grained annotations may refute a coarse path —
   the input's data reaches the output task without ever flowing into the
   data it emits. The view then reports a dependency that does not exist;
   annotations are what expose it. *)
let check_hidden_dependency ctx =
  if not (Spec.has_annotations ctx.spec) then []
  else
    let flow = Lazy.force ctx.flow in
    List.concat_map
      (fun c ->
        if List.length (View.members ctx.t.view c) < 2 then []
        else
          let { S.inputs; outputs } = S.composite_io ctx.t.view c in
          let cname = View.composite_name ctx.t.view c in
          List.concat_map
            (fun ti ->
              List.filter_map
                (fun to_ ->
                  if
                    Wolves_graph.Reach.reaches ctx.reach ti to_
                    && not (Flow.fine_depends flow ti to_)
                  then
                    let ni = task_name ctx ti and no = task_name ctx to_ in
                    Some
                      { D.rule = "view/hidden-dependency";
                        severity = D.Warning;
                        location = loc ctx (D.Composite cname);
                        message =
                          Printf.sprintf
                            "composite %S hides that %S's data never flows \
                             into %S's output: the path exists only at task \
                             granularity, so provenance over the view \
                             reports a spurious dependency"
                            cname ni no;
                        related =
                          [ related ctx (D.Task ni)
                              "input whose data is refuted by the annotations";
                            related ctx (D.Task no)
                              "output that never draws on it" ];
                        fix = None }
                  else None)
                outputs)
            inputs)
      (View.composites ctx.t.view)

(* --- DSL-level rules --- *)

(* Tasks declared but never referenced by any dependency statement or
   explicit composite block. *)
let check_unused ctx =
  match ctx.t.source with
  | None -> []
  | Some _ ->
    List.filter_map
      (fun t ->
        if is_unused ctx t then
          let name = task_name ctx t in
          Some
            { D.rule = "dsl/unused-task";
              severity = D.Warning;
              location = loc ctx (D.Task name);
              message =
                Printf.sprintf
                  "task %S is declared but never referenced by any \
                   dependency or composite"
                  name;
              related = [];
              fix = None }
        else None)
      (Spec.tasks ctx.spec)

(* The same dependency written more than once. Harmless to the elaborated
   graph (edges are a set) but noise in the document; the canonical
   rendering drops the duplicates. *)
let check_duplicate_edge ctx =
  match ctx.t.source with
  | None -> []
  | Some src ->
    let counts = Hashtbl.create 32 in
    List.iter
      (fun (pair, p) ->
        let prev = try Hashtbl.find counts pair with Not_found -> [] in
        Hashtbl.replace counts pair (p :: prev))
      src.Wfdsl.edge_occurrences;
    List.filter_map
      (fun (pair, _) ->
        match List.rev (try Hashtbl.find counts pair with Not_found -> []) with
        | first :: (second :: _ as dups) ->
          (* Report once, at the second occurrence. *)
          Hashtbl.remove counts pair;
          let a, b = pair in
          Some
            { D.rule = "dsl/duplicate-edge";
              severity = D.Warning;
              location =
                { D.file = ctx.t.file;
                  position =
                    Some
                      { D.line = second.Wfdsl.pos_line;
                        column = second.Wfdsl.pos_column };
                  anchor = D.Edge (a, b) };
              message =
                Printf.sprintf "dependency %S -> %S is declared %d times" a b
                  (1 + List.length dups);
              related =
                [ { D.r_location =
                      { D.file = ctx.t.file;
                        position =
                          Some
                            { D.line = first.Wfdsl.pos_line;
                              column = first.Wfdsl.pos_column };
                        anchor = D.Edge (a, b) };
                    note = "first declaration" } ];
              fix =
                Some
                  (D.Canonicalize
                     (Printf.sprintf "duplicate %S -> %S statements collapse"
                        a b)) }
        | _ -> None)
      src.Wfdsl.edge_occurrences

(* Composite names shadowing task names (other than the canonical implicit
   singleton): "the provenance of c" becomes ambiguous. *)
let check_shadowed ctx =
  List.filter_map
    (fun c ->
      let cname = View.composite_name ctx.t.view c in
      match Spec.task_of_name ctx.spec cname with
      | None -> None
      | Some t ->
        (match View.members ctx.t.view c with
         | [ single ] when single = t -> None  (* canonical singleton *)
         | _ ->
           Some
             { D.rule = "dsl/shadowed-name";
               severity = D.Warning;
               location = loc ctx (D.Composite cname);
               message =
                 Printf.sprintf
                   "composite %S shares its name with a task: references to \
                    %S are ambiguous between the composite and the task"
                   cname cname;
               related =
                 [ related ctx (D.Task cname) "the task being shadowed" ];
               fix = None }))
    (View.composites ctx.t.view)

(* --- registry --- *)

type rule = {
  meta : meta;
  check : ctx -> D.t list;
}

let rules =
  [ { meta =
        { id = "spec/orphan-task";
          layer = Spec_level;
          severity = D.Warning;
          doc = "task with no dependencies in either direction";
          fixable = false };
      check = check_orphan };
    { meta =
        { id = "spec/redundant-edge";
          layer = Spec_level;
          severity = D.Warning;
          doc = "dependency already implied by a longer path (transitive)";
          fixable = true };
      check = check_redundant_edge };
    { meta =
        { id = "spec/disconnected";
          layer = Spec_level;
          severity = D.Warning;
          doc = "two or more disconnected pipelines in one workflow";
          fixable = false };
      check = check_disconnected };
    { meta =
        { id = "spec/fan-bottleneck";
          layer = Spec_level;
          severity = D.Hint;
          doc = "suspiciously high fan-in or fan-out degree";
          fixable = false };
      check = check_fan_bottleneck };
    { meta =
        { id = "spec/annotation-inconsistent";
          layer = Spec_level;
          severity = D.Error;
          doc =
            "dependency annotation referencing a non-neighbour or \
             re-declaring an output";
          fixable = false };
      check = check_annotation_inconsistent };
    { meta =
        { id = "spec/annotation-incomplete";
          layer = Spec_level;
          severity = D.Warning;
          doc =
            "annotated task leaving outputs without an entry (fix: insert \
             the inferred minimal entries)";
          fixable = true };
      check = check_annotation_incomplete };
    { meta =
        { id = "spec/dead-data";
          layer = Spec_level;
          severity = D.Warning;
          doc =
            "edge whose data can never influence a terminal output under \
             the annotations";
          fixable = false };
      check = check_dead_data };
    { meta =
        { id = "view/unsound-composite";
          layer = View_level;
          severity = D.Error;
          doc =
            "composite violating Def 2.3 soundness, with a minimal witness \
             core";
          fixable = true };
      check = check_unsound };
    { meta =
        { id = "view/degenerate-composite";
          layer = View_level;
          severity = D.Warning;
          doc = "singleton composite that only renames its member";
          fixable = true };
      check = check_degenerate };
    { meta =
        { id = "view/monolithic-view";
          layer = View_level;
          severity = D.Warning;
          doc = "a single composite hiding the entire workflow";
          fixable = false };
      check = check_monolithic };
    { meta =
        { id = "view/combinable-composites";
          layer = View_level;
          severity = D.Hint;
          doc =
            "adjacent sound composites whose union is sound (weak local \
             optimality violation)";
          fixable = true };
      check = check_combinable };
    { meta =
        { id = "view/hidden-dependency";
          layer = View_level;
          severity = D.Warning;
          doc =
            "composite whose coarse input-output path is refuted by the \
             fine-grained annotations (spurious view-level dependency)";
          fixable = false };
      check = check_hidden_dependency };
    { meta =
        { id = "dsl/unused-task";
          layer = Dsl_level;
          severity = D.Warning;
          doc = "task declared but never referenced by an edge or composite";
          fixable = false };
      check = check_unused };
    { meta =
        { id = "dsl/duplicate-edge";
          layer = Dsl_level;
          severity = D.Warning;
          doc = "the same dependency declared more than once";
          fixable = true };
      check = check_duplicate_edge };
    { meta =
        { id = "dsl/shadowed-name";
          layer = Dsl_level;
          severity = D.Warning;
          doc = "composite name shadowing a task name";
          fixable = false };
      check = check_shadowed } ]

let all = List.map (fun r -> r.meta) rules

let find id = List.find_opt (fun m -> m.id = id) all

(* --- observability --- *)

let metric_name prefix id =
  prefix ^ String.map (fun c -> if c = '/' then '.' else c) id

let hit_counters =
  List.map (fun r -> (r.meta.id, Metrics.counter (metric_name "lint.hits." r.meta.id))) rules

let rule_timers =
  List.map (fun r -> (r.meta.id, Metrics.timer (metric_name "lint.time." r.meta.id))) rules

let c_targets = Metrics.counter "lint.targets"
let c_diagnostics = Metrics.counter "lint.diagnostics"
let t_analyze = Metrics.timer "lint.analyze"

(* --- driver --- *)

let analyze ?(fan_threshold = 8) ~enabled t =
  Metrics.incr c_targets;
  Metrics.time t_analyze
    ~args:(fun () ->
      [ ("workflow", Spec.name (View.spec t.view));
        ("composites", string_of_int (View.n_composites t.view)) ])
    (fun () ->
      let spec = View.spec t.view in
      let ctx =
        { t;
          spec;
          reach = Spec.reach spec;
          report = lazy (S.validate t.view);
          flow = lazy (Flow.compute spec);
          annot_issues = lazy (Annot.validate spec);
          inference = lazy (Annot.infer spec);
          fan_threshold }
      in
      let diagnostics =
        List.concat_map
          (fun r ->
            if not (enabled r.meta.id) then []
            else
              Metrics.time (List.assoc r.meta.id rule_timers) (fun () ->
                  let ds = r.check ctx in
                  Metrics.add (List.assoc r.meta.id hit_counters)
                    (List.length ds);
                  ds))
          rules
      in
      Metrics.add c_diagnostics (List.length diagnostics);
      List.sort D.compare diagnostics)
