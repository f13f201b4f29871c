(* The paper's running example end to end (Figure 1): phylogenomic inference
   of protein biological functions.

   Reproduces the introduction's provenance walkthrough: the user checks the
   provenance of the formatted alignment produced by composite (18) with
   respect to the view, gets a wrong answer that includes annotation data
   (composite 14 / task 3), and WOLVES pinpoints and repairs the unsound
   composite (16).

   Run with: dune exec examples/phylogenomics.exe *)

open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module P = Wolves_provenance.Provenance
module Render = Wolves_cli.Render
module Bitset = Wolves_graph.Bitset

let rule title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let spec, view = Examples.figure1 () in

  rule "Workflow specification (Figure 1a)";
  print_string (Render.spec_summary spec);

  rule "User-defined view (Figure 1b)";
  print_string (Render.view_summary view);

  rule "Provenance analysis on the raw view";
  let c18 = Examples.figure1_query_composite view in
  print_string (Render.provenance_summary view c18);

  (* The specific wrong conclusion from the paper: annotation data (the item
     flowing 3 -> 4) is reported as provenance of the formatted alignment. *)
  let bad_item =
    { P.producer = Spec.task_of_name_exn spec "3:Extract Annotations";
      P.consumer = Spec.task_of_name_exn spec "4:Curate Annotations" }
  in
  Format.printf "paper's example item (%a): view says %b, ground truth %b@."
    (P.pp_item spec) bad_item
    (P.view_claims_item view bad_item c18)
    (P.truth_for_composite view bad_item c18);

  rule "Validator (Prop 2.1)";
  Format.printf "%a@." S.pp_report (S.validate view);

  rule "Correction under all three criteria";
  List.iter
    (fun criterion ->
      let (corrected, outcomes), elapsed =
        Render.time (fun () -> C.correct criterion view)
      in
      Format.printf "%a: %d composites -> %d composites in %.5fs@."
        C.pp_criterion criterion (View.n_composites view)
        (View.n_composites corrected) elapsed;
      List.iter
        (fun (c, o) ->
          Format.printf "  split %s into %d parts@."
            (View.composite_name view c)
            (List.length o.C.parts))
        outcomes)
    [ C.Weak; C.Strong; C.Optimal ];

  rule "Provenance on the corrected view";
  let corrected, _ = C.correct C.Strong view in
  let c18' = Option.get (View.composite_of_name corrected "18:Format Alignment") in
  print_string (Render.provenance_summary corrected c18');
  let stats = P.evaluate_view corrected in
  Format.printf "audit: %d queries, %d spurious, %d missing@." stats.P.queries
    stats.P.spurious stats.P.missing;

  rule "Alternative: merge-based resolution (extension)";
  let merged_view, merged =
    C.merge_resolve view (Examples.figure1_unsound_composite view)
  in
  Format.printf
    "merging instead of splitting also restores soundness (%b) but hides %d \
     tasks in %S@."
    (S.is_sound merged_view)
    (List.length (View.members merged_view merged))
    (View.composite_name merged_view merged);

  (* DOT artifacts for inspection with Graphviz. *)
  let out = "phylogenomics_view.dot" in
  Out_channel.with_open_text out (fun oc ->
      Out_channel.output_string oc (Render.view_dot view));
  Format.printf "wrote %s (unsound composite drawn red)@." out
