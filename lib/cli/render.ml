open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module P = Wolves_provenance.Provenance
module Dot = Wolves_graph.Dot
module Bitset = Wolves_graph.Bitset

let spec_summary spec =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "workflow %S: %d tasks, %d dependencies\n" (Spec.name spec)
       (Spec.n_tasks spec) (Spec.n_dependencies spec));
  List.iter
    (fun t ->
      let consumers = Spec.consumers spec t in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s\n" (Spec.task_name spec t)
           (if consumers = [] then "(output)"
            else String.concat ", " (List.map (Spec.task_name spec) consumers))))
    (Spec.topological_order spec);
  Buffer.contents buf

let red color s = if color then "\027[31m" ^ s ^ "\027[0m" else s

let green color s = if color then "\027[32m" ^ s ^ "\027[0m" else s

let view_summary ?(color = false) view =
  let spec = View.spec view in
  let report = S.validate view in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "view of %S: %d composites (compression %.1fx)\n"
       (Spec.name spec) (View.n_composites view) (View.compression view));
  List.iter
    (fun c ->
      let members =
        String.concat ", " (List.map (Spec.task_name spec) (View.members view c))
      in
      if not (List.mem_assoc c report.S.unsound) then
        Buffer.add_string buf
          (Printf.sprintf "  %s %s = {%s}\n" (green color "[sound]  ")
             (View.composite_name view c) members)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "  %s %s = {%s}\n" (red color "[UNSOUND]")
             (View.composite_name view c) members);
        List.iter
          (fun (ti, to_) ->
            Buffer.add_string buf
              (Printf.sprintf "      no path %s -> %s\n" (Spec.task_name spec ti)
                 (Spec.task_name spec to_)))
          (S.composite_witnesses view c)
      end)
    (View.composites view);
  Buffer.contents buf

let correction_summary view outcomes =
  let spec = View.spec view in
  let buf = Buffer.create 256 in
  if outcomes = [] then Buffer.add_string buf "view already sound; nothing to correct\n"
  else
    List.iter
      (fun (c, outcome) ->
        Buffer.add_string buf
          (Printf.sprintf
             "composite %S split into %d sound tasks (%d checks%s%s)\n"
             (View.composite_name view c)
             (List.length outcome.C.parts)
             outcome.C.checks
             (if outcome.C.probes > 0 then
                Printf.sprintf ", %d probes" outcome.C.probes
              else "")
             (if outcome.C.certified_strong then ", certified strongly optimal"
              else ""));
        List.iteri
          (fun i part ->
            Buffer.add_string buf
              (Printf.sprintf "    part %d: {%s}\n" i
                 (String.concat ", " (List.map (Spec.task_name spec) part))))
          outcome.C.parts)
      outcomes;
  Buffer.contents buf

let view_dot ?(highlight_unsound = true) view =
  let spec = View.spec view in
  let report = S.validate view in
  let clusters =
    List.map
      (fun c ->
        let unsound = List.mem_assoc c report.S.unsound in
        { Dot.cluster_name = string_of_int c;
          cluster_label = View.composite_name view c;
          cluster_nodes = View.members view c;
          cluster_color =
            (if highlight_unsound && unsound then Some "red"
             else Some "forestgreen") })
      (View.composites view)
  in
  Dot.to_string ~graph_name:(Spec.name spec)
    ~node_label:(Spec.task_name spec)
    ~clusters (Spec.graph spec)

let provenance_summary view target =
  let spec = View.spec view in
  let buf = Buffer.create 256 in
  let ancestors = P.composite_ancestors view target in
  Buffer.add_string buf
    (Printf.sprintf "view-level provenance of %S:\n"
       (View.composite_name view target));
  Bitset.iter
    (fun c ->
      if c <> target then
        Buffer.add_string buf
          (Printf.sprintf "  composite %s\n" (View.composite_name view c)))
    ancestors;
  let tasks = P.expand view ancestors in
  Buffer.add_string buf
    (Printf.sprintf "expanded to %d tasks\n" (Bitset.cardinal tasks));
  (match P.spurious_items view target with
   | [] ->
     Buffer.add_string buf "no spurious data items: the answer is exact\n"
   | spurious ->
     Buffer.add_string buf
       (Printf.sprintf "WARNING: %d spurious data item(s) reported:\n"
          (List.length spurious));
     List.iter
       (fun item ->
         Buffer.add_string buf
           (Format.asprintf
              "  data item %a is NOT truly in the provenance of %s's output\n"
              (P.pp_item spec) item
              (View.composite_name view target));
         match P.explain view item target with
         | P.Spurious composites ->
           Buffer.add_string buf
             (Printf.sprintf "    misled by the view path: %s\n"
                (String.concat " -> "
                   (List.map (View.composite_name view) composites)))
         | P.Genuine _ | P.Not_claimed -> ())
       spurious);
  Buffer.contents buf

(* Monotonic, never-negative timing: [Unix.gettimeofday] is a wall clock
   that can step backwards under NTP adjustment and corrupt bench numbers. *)
let time f = Wolves_obs.Clock.time f
