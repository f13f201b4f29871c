(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md (the
   demo paper's evaluation claims, §3.1, plus its figures and motivating
   claims), one section per experiment id, and finishes with Bechamel
   micro-benchmarks (one Test.make per experiment kernel).

   Run with: dune exec bench/main.exe            (all sections)
             dune exec bench/main.exe -- E-QUAL  (a subset)
   Flags (before section ids):
     --json FILE        also write a machine-readable artifact: per-section
                        wall time, section-specific key figures, and the
                        Wolves_obs registry snapshot (soundness checks vs
                        pruning probes, cache hit counts, timer histograms)
     --smoke            shrink every workload so the whole run finishes in
                        seconds (CI's @bench-smoke alias)
     --compare FILE     regression gate: diff each section's wall time
                        against a committed --json artifact (any schema
                        version) and exit 1 when a section exceeds
                        baseline x threshold (+ absolute slack, so
                        microsecond sections are noise-immune)
     --threshold F      slowdown factor tolerated by --compare (default
                        1.5)
     --domains N        default domain count for the parallel kernels
                        (closure construction, validator, corrector);
                        equivalent to WOLVES_DOMAINS=N                    *)

open Wolves_workflow
module S = Wolves_core.Soundness
module C = Wolves_core.Corrector
module E = Wolves_core.Estimator
module Q = Wolves_core.Quality
module H = Wolves_core.Hardness
module P = Wolves_provenance.Provenance
module Gen = Wolves_workload.Generate
module Views = Wolves_workload.Views
module Prng = Wolves_workload.Prng
module R = Wolves_repository.Repository
module Table = Wolves_cli.Table
module Render = Wolves_cli.Render
module Bitset = Wolves_graph.Bitset
module Reach = Wolves_graph.Reach
module Json = Wolves_cli.Json
module Benchgate = Wolves_cli.Benchgate
module Metrics = Wolves_obs.Metrics
module Par = Wolves_par.Par
module Annot = Wolves_analysis.Annot

(* Smoke mode: every section picks between its full workload and a
   seconds-scale stand-in, so CI can run the whole harness end to end. *)
let smoke = ref false

let sm full light = if !smoke then light else full

(* The machine-readable artifact (--json): one entry per section run, with
   the wall time, any key figures the section publishes via [kv], and the
   metrics-registry snapshot collected while the section ran. *)
module Report = struct
  let entries : (string * Json.t) list ref = ref []
  let current : (string * Json.t) list ref = ref []

  let kv key v = current := (key, v) :: !current

  let timer_json (st : Metrics.timer_stats) =
    Json.Obj
      [ ("count", Json.Int st.Metrics.count);
        ("sum_s", Json.Float st.Metrics.sum);
        ("max_s", Json.Float st.Metrics.max) ]

  let metrics_json (snap : Metrics.snapshot) =
    Json.Obj
      [ ( "counters",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Int v)) snap.Metrics.counters) );
        ( "gauges",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Float v)) snap.Metrics.gauges) );
        ( "timers",
          Json.Obj
            (List.filter_map
               (fun (n, st) ->
                 if st.Metrics.count = 0 then None else Some (n, timer_json st))
               snap.Metrics.timers) ) ]

  let finish_section id ~wall snap =
    entries :=
      ( id,
        Json.Obj
          (("wall_time_s", Json.Float wall)
           :: List.rev !current
          @ [ ("metrics", metrics_json snap) ]) )
      :: !entries;
    current := []

  let write path =
    let doc =
      Json.Obj
        [ ("schema_version", Json.Int 2);
          ("harness", Json.String "bench/main.ml");
          ("smoke", Json.Bool !smoke);
          ("sections", Json.Obj (List.rev !entries)) ]
    in
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n')
end

let section id paper_claim =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" id;
  Printf.printf "paper: %s\n" paper_claim;
  Printf.printf "==================================================================\n"

let fmt_s t =
  if t < 1e-6 then Printf.sprintf "%.0fns" (t *. 1e9)
  else if t < 1e-3 then Printf.sprintf "%.1fus" (t *. 1e6)
  else if t < 1.0 then Printf.sprintf "%.2fms" (t *. 1e3)
  else Printf.sprintf "%.2fs" t

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Repeat a thunk until it has consumed ~[budget] seconds and report the mean
   wall-clock time per run (at least one run). *)
let time_per_run ?(budget = 0.05) f =
  let _, first = Render.time f in
  if first > budget then first
  else begin
    let runs = max 1 (int_of_float (budget /. (first +. 1e-9))) in
    let _, total = Render.time (fun () -> for _ = 1 to runs do ignore (f ()) done) in
    total /. float_of_int runs
  end

(* A random correction instance: a composite of [k] random tasks inside a
   generated workflow (deterministic in [seed]). *)
let random_instance family ~seed ~size ~k =
  let spec = Gen.generate family ~seed ~size in
  let rng = Prng.create (seed lxor 0x5EED) in
  let members =
    List.sort compare
      (List.filteri (fun i _ -> i < k) (Prng.shuffle rng (Spec.tasks spec)))
  in
  (spec, members)

(* ------------------------------------------------------------------ *)
(* E-FIG1                                                               *)
(* ------------------------------------------------------------------ *)

let e_fig1 () =
  section "E-FIG1"
    "Figure 1: the phylogenomics view is unsound at composite 16 and yields \
     wrong provenance for the output of composite 18";
  let spec, view = Examples.figure1 () in
  let report = S.validate view in
  let unsound_names =
    List.map (fun (c, _) -> View.composite_name view c) report.S.unsound
  in
  Printf.printf "unsound composites: %s (paper: 16)\n"
    (String.concat ", " unsound_names);
  let c18 = Examples.figure1_query_composite view in
  let spurious = P.spurious_items view c18 in
  Printf.printf "spurious items in provenance of 18: %s (paper: data of task 3)\n"
    (String.concat ", "
       (List.map (Format.asprintf "%a" (P.pp_item spec)) spurious));
  let corrected, _ = C.correct C.Strong view in
  let stats = P.evaluate_view corrected in
  Printf.printf "after correction: %d spurious / %d queries (expected 0)\n"
    stats.P.spurious stats.P.queries

(* ------------------------------------------------------------------ *)
(* E-FIG3                                                               *)
(* ------------------------------------------------------------------ *)

let e_fig3 () =
  section "E-FIG3"
    "Figure 3: weak local optimal split = 8 parts, strong = 5, strong is \
     strictly better; {f,g} not combinable, {c,d,f,g} combinable";
  let spec, view = Examples.figure3 () in
  let members = View.members view (Examples.figure3_composite view) in
  let rows =
    List.map
      (fun criterion ->
        let outcome, elapsed =
          Render.time (fun () -> C.split_subset criterion spec members)
        in
        let name = Format.asprintf "%a" C.pp_criterion criterion in
        (* checks counts full soundness decisions only; the optimal DP's
           bit-parallel mask evaluations and the anytime search's pruning
           probes report separately (see Corrector.outcome). *)
        Report.kv name
          (Json.Obj
             [ ("parts", Json.Int (List.length outcome.C.parts));
               ("checks", Json.Int outcome.C.checks);
               ("probes", Json.Int outcome.C.probes);
               ("time_s", Json.Float elapsed) ]);
        [ name;
          string_of_int (List.length outcome.C.parts);
          string_of_int outcome.C.checks;
          string_of_int outcome.C.probes;
          fmt_s elapsed ])
      [ C.Weak; C.Strong; C.Optimal ]
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "criterion"; "parts"; "soundness checks"; "probes"; "time" ]
       rows);
  let t n = Spec.task_of_name_exn spec n in
  Printf.printf "{f,g} combinable: %b (paper: false)\n"
    (C.combinable spec [ t "f" ] [ t "g" ]);
  Printf.printf "{c,d,f,g} combinable: %b (paper: true)\n"
    (C.combinable spec [ t "c"; t "d" ] [ t "f"; t "g" ])

(* ------------------------------------------------------------------ *)
(* E-QUAL                                                               *)
(* ------------------------------------------------------------------ *)

let e_qual () =
  section "E-QUAL"
    "\xc2\xa73.1: the strongly local optimal corrector often produces views with \
     similar quality to the optimal corrector (quality = optimal parts / \
     algorithm parts, 1.0 is best)";
  (* Instances: the unsound composites found in a corpus of generated
     workflows with structure-following views perturbed toward unsoundness
     (the paper's expert + automatic views), capped to the optimal
     corrector's range. *)
  let rows = ref [] in
  List.iter
    (fun family ->
      let corpus =
        Views.unsound_corpus ~seed:42 ~families:[ family ]
          ~sizes:(sm [ 24; 48 ] [ 16 ])
          ~per_cell:(sm 12 2)
      in
      let instances =
        List.concat_map
          (fun (spec, view) ->
            List.filter_map
              (fun (c, _) ->
                let members = View.members view c in
                let n = List.length members in
                if n >= 3 && n <= 16 then Some (spec, members) else None)
              (S.validate view).S.unsound)
          corpus
      in
      let weak_q = ref [] and strong_q = ref [] in
      let weak_sub = ref 0 in
      List.iter
        (fun (spec, members) ->
          let cmp = Q.compare_criteria spec members in
          Option.iter (fun q -> weak_q := q :: !weak_q) cmp.Q.weak_quality;
          Option.iter
            (fun q ->
              if q < 0.999 then incr weak_sub;
              ignore q)
            cmp.Q.weak_quality;
          Option.iter (fun q -> strong_q := q :: !strong_q) cmp.Q.strong_quality)
        instances;
      if !weak_q <> [] then
        rows :=
          [ Gen.family_name family;
            string_of_int (List.length !weak_q);
            Printf.sprintf "%.3f" (mean !weak_q);
            Printf.sprintf "%.3f" (mean !strong_q);
            string_of_int !weak_sub ]
          :: !rows)
    Gen.all_families;
  (* The analytic hardness families: the worst case for weak optimality. *)
  List.iter
    (fun (blocks, chains) ->
      let spec, members = H.blocks_instance ~blocks ~chains in
      let cmp = Q.compare_criteria spec members in
      rows :=
        [ Printf.sprintf "blocks(%d,%d)" blocks chains;
          "1";
          (match cmp.Q.weak_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
          (match cmp.Q.strong_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
          "1" ]
        :: !rows)
    (sm [ (1, 1); (2, 2); (3, 3) ] [ (1, 1); (2, 2) ]);
  List.iter
    (fun width ->
      let spec, members = H.wide_block_instance ~width in
      let cmp = Q.compare_criteria spec members in
      rows :=
        [ Printf.sprintf "wide-block(%d)" width;
          "1";
          (match cmp.Q.weak_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
          (match cmp.Q.strong_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
          "1" ]
        :: !rows)
    (sm [ 2; 4; 7 ] [ 2; 4 ]);
  (* The pinned strong-vs-optimal separation (see Hardness.strong_gap_instance). *)
  let gap_spec, gap_members = H.strong_gap_instance () in
  let gap_cmp = Q.compare_criteria gap_spec gap_members in
  rows :=
    [ "strong-gap gadget";
      "1";
      (match gap_cmp.Q.weak_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
      (match gap_cmp.Q.strong_quality with Some q -> Printf.sprintf "%.3f" q | None -> "-");
      "1" ]
    :: !rows;
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "family"; "unsound composites"; "weak quality"; "strong quality";
           "weak suboptimal" ]
       (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* E-TIME                                                               *)
(* ------------------------------------------------------------------ *)

let e_time () =
  section "E-TIME"
    "\xc2\xa73.1: strong is several orders of magnitude faster than optimal and \
     comparable in efficiency with weak";
  Report.kv "domains" (Json.Int (Par.default_domains ()));
  (* strong = the polynomial closure algorithm, whose final round also
     certifies its result (see DESIGN.md). *)
  let seeds = List.init (sm 3 1) Fun.id in
  let instance_for seed n =
    (* Mix a structured hardness instance into every size so the correctors
       have real work (random subsets are usually near-trivial). *)
    if seed = 0 && n >= 6 && n mod 2 = 0 then
      let blocks = max 1 (n / 8) in
      let chains = (n - 4 * blocks) / 2 in
      if 4 * blocks + 2 * chains = n && chains >= 0 then
        H.blocks_instance ~blocks ~chains
      else random_instance Gen.Layered ~seed:(seed * 37) ~size:(3 * n) ~k:n
    else random_instance Gen.Layered ~seed:(seed * 37) ~size:(3 * n) ~k:n
  in
  let rows =
    List.map
      (fun n ->
        let collect criterion =
          mean
            (List.map
               (fun seed ->
                 let spec, members = instance_for seed n in
                 time_per_run ~budget:0.02 (fun () ->
                     C.split_subset criterion spec members))
               seeds)
        in
        let weak_t = collect C.Weak in
        let strong_t = collect C.Strong in
        let optimal_t = if n <= 18 then Some (collect C.Optimal) else None in
        [ string_of_int n;
          fmt_s weak_t;
          fmt_s strong_t;
          (match optimal_t with Some t -> fmt_s t | None -> "(skipped)");
          (match optimal_t with
           | Some t -> Printf.sprintf "%.0fx" (t /. strong_t)
           | None -> "-") ])
      (sm [ 8; 10; 12; 14; 16; 18; 20 ] [ 8; 10; 12 ])
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "composite size"; "weak"; "strong"; "optimal"; "optimal/strong" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-VALID                                                              *)
(* ------------------------------------------------------------------ *)

let e_valid () =
  section "E-VALID"
    "§2.1: the Prop 2.1 validator is polynomial; directly applying Def 2.1 \
     by path enumeration is exponential";
  (* Small sizes: naive path enumeration explodes quickly. *)
  let naive_rows =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Layered ~seed:1 ~size in
        let view = Views.build ~seed:1 (Views.Topological_bands 5) spec in
        let validator_t = time_per_run (fun () -> S.validate view) in
        let naive_result, naive_t =
          Render.time (fun () -> S.naive_preserves_paths ~fuel:20_000_000 view)
        in
        [ string_of_int size;
          fmt_s validator_t;
          (match naive_result with
           | Some _ -> fmt_s naive_t
           | None -> Printf.sprintf ">%s (fuel exhausted)" (fmt_s naive_t)) ])
      (sm [ 10; 20; 30; 40; 60; 80 ] [ 10; 20 ])
  in
  print_endline
    (Table.render
       ~align:[ Table.Right; Table.Right; Table.Right ]
       ~header:[ "workflow size"; "validator (Prop 2.1)"; "naive Def 2.1" ]
       naive_rows);
  (* Large sizes: the validator scales. *)
  let big_rows =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Layered ~seed:2 ~size in
        let view = Views.build ~seed:2 (Views.Topological_bands 5) spec in
        let t = time_per_run (fun () -> S.validate view) in
        [ string_of_int size; string_of_int (View.n_composites view); fmt_s t ])
      (sm [ 100; 250; 500; 1000; 2000 ] [ 100 ])
  in
  print_endline "";
  print_endline
    (Table.render
       ~align:[ Table.Right; Table.Right; Table.Right ]
       ~header:[ "workflow size"; "composites"; "validator time" ]
       big_rows)

(* ------------------------------------------------------------------ *)
(* E-PROV                                                               *)
(* ------------------------------------------------------------------ *)

let e_prov () =
  section "E-PROV"
    "§1: unsound views cause incorrect provenance analysis; corrected views \
     answer every provenance query exactly";
  let corpus =
    Views.unsound_corpus ~seed:11 ~families:Gen.all_families
      ~sizes:(sm [ 20; 40 ] [ 20 ])
      ~per_cell:(sm 5 1)
  in
  let evaluate (spec, view) =
    ignore spec;
    let stats = P.evaluate_view view in
    (stats, S.is_sound view)
  in
  let before = List.map evaluate corpus in
  let after =
    List.map
      (fun (spec, view) ->
        ignore spec;
        let corrected, _ = C.correct C.Strong view in
        evaluate (spec, corrected))
      corpus
  in
  let summarise tag results =
    let unsound = List.length (List.filter (fun (_, sound) -> not sound) results) in
    let rates = List.map (fun (s, _) -> P.spurious_rate s) results in
    let with_spurious =
      List.length (List.filter (fun (s, _) -> s.P.spurious > 0) results)
    in
    [ tag;
      Printf.sprintf "%d/%d" unsound (List.length results);
      Printf.sprintf "%d/%d" with_spurious (List.length results);
      Printf.sprintf "%.2f%%" (100.0 *. mean rates) ]
  in
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "corpus"; "unsound views"; "views w/ spurious answers";
           "mean spurious rate" ]
       [ summarise "as designed" before; summarise "after correction" after ])

(* ------------------------------------------------------------------ *)
(* E-SPEED                                                              *)
(* ------------------------------------------------------------------ *)

let e_speed () =
  section "E-SPEED"
    "\xc2\xa71: provenance analysis at the view level is more efficient than at \
     the workflow level (smaller graphs, smaller transitive closures)";
  (* Sound-by-construction compressive views over pipeline workflows: the
     setting the paper motivates (analyse provenance on the view, correctly). *)
  let rows =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Pipeline ~seed:5 ~size in
        let view = Views.build ~seed:5 (Views.Sound_groups 10) spec in
        assert (S.is_sound view);
        let build_wf =
          time_per_run ~budget:0.05 (fun () ->
              Reach.compute (Spec.graph spec))
        in
        let build_view =
          time_per_run ~budget:0.05 (fun () ->
              Reach.compute (View.view_graph view))
        in
        let wf_closure = Reach.n_closure_edges (Spec.reach spec) in
        let view_closure = Reach.n_closure_edges (View.view_reach view) in
        let task = Spec.n_tasks spec - 1 in
        let wf_q =
          time_per_run ~budget:0.02 (fun () -> P.task_ancestors spec task)
        in
        let view_q =
          time_per_run ~budget:0.02 (fun () ->
              P.composite_ancestors view (View.composite_of_task view task))
        in
        [ string_of_int size;
          string_of_int (View.n_composites view);
          string_of_int wf_closure;
          string_of_int view_closure;
          fmt_s build_wf;
          fmt_s build_view;
          fmt_s wf_q;
          fmt_s view_q;
          Printf.sprintf "%.1fx" (wf_q /. view_q) ])
      (sm [ 100; 250; 500; 1000; 2000; 3000 ] [ 100; 250 ])
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "tasks"; "composites"; "wf closure"; "view closure"; "wf TC build";
           "view TC build"; "wf query"; "view query"; "query speedup" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-EST                                                                *)
(* ------------------------------------------------------------------ *)

let e_est () =
  section "E-EST"
    "§3.2: WOLVES estimates correction time and quality from past runs \
     grouped by size and substructure";
  let history = E.create () in
  let rng = Prng.create 313 in
  let run_one seed =
    let family = Prng.pick rng Gen.all_families in
    let k = 6 + Prng.int rng 8 in
    let spec, members =
      if seed mod 3 = 0 then
        H.blocks_instance ~blocks:(1 + (seed mod 2)) ~chains:(1 + (seed mod 3))
      else random_instance family ~seed ~size:(3 * k) ~k
    in
    let features = E.features_of spec members in
    let per_criterion =
      List.map
        (fun criterion ->
          let outcome, elapsed =
            Render.time (fun () -> C.split_subset criterion spec members)
          in
          let optimal = C.split_subset C.Optimal spec members in
          let quality =
            Q.ratio
              ~optimal_parts:(List.length optimal.C.parts)
              ~parts:(List.length outcome.C.parts)
          in
          (criterion, elapsed, quality))
        [ C.Weak; C.Strong ]
    in
    (features, per_criterion)
  in
  (* Train on 300 corrections. *)
  for seed = 1 to sm 300 30 do
    let features, runs = run_one seed in
    List.iter
      (fun (criterion, elapsed, quality) ->
        E.record history features criterion ~runtime:elapsed ~quality)
      runs
  done;
  (* Evaluate predictions on 100 fresh corrections. *)
  let q_errors = ref [] in
  let t_log_errors = ref [] in
  let covered = ref 0 and total = ref 0 in
  for seed = 1001 to sm 1100 1010 do
    let features, runs = run_one seed in
    List.iter
      (fun (criterion, elapsed, quality) ->
        incr total;
        let est = E.estimate history features criterion in
        match (est.E.expected_runtime, est.E.expected_quality) with
        | Some rt, Some q ->
          incr covered;
          q_errors := abs_float (q -. quality) :: !q_errors;
          t_log_errors :=
            abs_float (log10 ((rt +. 1e-9) /. (elapsed +. 1e-9)))
            :: !t_log_errors
        | _ -> ())
      runs
  done;
  Printf.printf "history: %d recorded corrections\n" (E.n_records history);
  Printf.printf "coverage: %d/%d fresh corrections had a matching group\n"
    !covered !total;
  Printf.printf "mean |quality error|: %.3f (quality scale 0..1)\n"
    (mean !q_errors);
  Printf.printf
    "mean |log10(predicted/actual runtime)|: %.2f (0 = exact, 1 = 10x off)\n"
    (mean !t_log_errors);
  List.iter
    (fun criterion ->
      match E.fit_runtime history criterion with
      | Some fit ->
        Format.printf "fitted scaling law for %a: %a@." C.pp_criterion criterion
          E.pp_fit fit
      | None -> ())
    [ C.Weak; C.Strong ]

(* ------------------------------------------------------------------ *)
(* E-AUDIT                                                              *)
(* ------------------------------------------------------------------ *)

let e_audit () =
  section "E-AUDIT"
    "§1: a survey of a curated repository reveals unsound views (synthetic \
     corpus standing in for Kepler / myExperiment)";
  let repo =
    R.synthesize ~seed:2009 ~per_cell:(sm 10 2) ~sizes:(sm [ 16; 32 ] [ 16 ]) ()
  in
  let audit = R.audit repo in
  Format.printf "%a@." R.pp_audit audit

(* ------------------------------------------------------------------ *)
(* E-INC: ablation — incremental session validation vs full revalidation *)
(* ------------------------------------------------------------------ *)

let e_inc () =
  section "E-INC (ablation)"
    "demo: validating while the user edits the view; incremental per-\
     composite caching vs re-validating the whole view after every edit";
  let module Session = Wolves_core.Session in
  let rows =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Layered ~seed:13 ~size in
        let view = Views.build ~seed:13 (Views.Connected_groups 5) spec in
        let edits = sm 200 50 in
        let rng0 = Prng.create 99 in
        let moves =
          List.init edits (fun _ -> Prng.int rng0 size)
        in
        (* Incremental: one session, move + query unsound after each edit. *)
        let _, inc_t =
          Render.time (fun () ->
              let s = Session.start view in
              List.iter
                (fun task ->
                  let names = Session.composite_names s in
                  let target = List.nth names (task mod List.length names) in
                  (match Session.move_task s task ~into:target with
                   | Ok () | Error _ -> ());
                  ignore (Session.unsound s))
                moves)
        in
        let s_stats = Session.start view in
        let checks_inc =
          let s = s_stats in
          List.iter
            (fun task ->
              let names = Session.composite_names s in
              let target = List.nth names (task mod List.length names) in
              (match Session.move_task s task ~into:target with
               | Ok () | Error _ -> ());
              ignore (Session.unsound s))
            moves;
          Session.checks_performed s
        in
        (* Full: rebuild + validate the whole view after each edit. *)
        let _, full_t =
          Render.time (fun () ->
              let s = Session.start view in
              List.iter
                (fun task ->
                  let names = Session.composite_names s in
                  let target = List.nth names (task mod List.length names) in
                  (match Session.move_task s task ~into:target with
                   | Ok () | Error _ -> ());
                  ignore (S.validate (Session.current_view s)))
                moves)
        in
        Report.kv
          (Printf.sprintf "size_%d" size)
          (Json.Obj
             [ ("edits", Json.Int edits);
               ("incremental_checks", Json.Int checks_inc);
               ("incremental_s", Json.Float inc_t);
               ("full_s", Json.Float full_t) ]);
        [ string_of_int size;
          string_of_int edits;
          string_of_int checks_inc;
          fmt_s inc_t;
          fmt_s full_t;
          Printf.sprintf "%.1fx" (full_t /. inc_t) ])
      (sm [ 50; 100; 200; 400 ] [ 50 ])
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right ]
       ~header:
         [ "tasks"; "edits"; "incremental checks"; "incremental"; "full";
           "speedup" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-INDEX: ablation — reachability index strategies                    *)
(* ------------------------------------------------------------------ *)

let e_index () =
  section "E-INDEX (ablation)"
    "graph management: bitset transitive closure vs per-query BFS, across \
     workflow shapes";
  let module Algo = Wolves_graph.Algo in
  let n = sm 1000 200 in
  let shapes =
    [ (Printf.sprintf "pipeline-%d" n, Gen.generate Gen.Pipeline ~seed:7 ~size:n);
      (Printf.sprintf "layered-%d" n, Gen.generate Gen.Layered ~seed:7 ~size:n);
      ( Printf.sprintf "narrow-layered-%d" (3 * (n / 3)),
        Gen.layered ~seed:7 ~layers:(n / 3) ~width:3 ~fanout:1.0 );
      ( Printf.sprintf "series-parallel-%d" n,
        Gen.generate Gen.Series_parallel ~seed:7 ~size:n ) ]
  in
  let rows =
    List.map
      (fun (name, spec) ->
        let g = Spec.graph spec in
        let n = Spec.n_tasks spec in
        let closure_build = time_per_run ~budget:0.1 (fun () -> Reach.compute g) in
        let closure = Reach.compute g in
        let rng = Prng.create 5 in
        let queries =
          Array.init 512 (fun _ -> (Prng.int rng n, Prng.int rng n))
        in
        let run_queries f =
          time_per_run ~budget:0.05 (fun () ->
              Array.iter (fun (u, v) -> ignore (f u v)) queries)
        in
        let closure_q = run_queries (Reach.reaches closure) in
        let bfs_q =
          run_queries (fun u v ->
              Wolves_graph.Bitset.mem (Algo.reachable_from g [ u ]) v)
        in
        (* descendant and ancestor rows *)
        let closure_words = 2 * n * ((n + 62) / 63) in
        [ name;
          string_of_int closure_words;
          fmt_s closure_build;
          fmt_s (closure_q /. 512.);
          fmt_s (bfs_q /. 512.) ])
      shapes
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "graph"; "closure words"; "closure build"; "closure q"; "BFS q" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-BB: ablation — anytime branch-and-bound beyond the DP limit        *)
(* ------------------------------------------------------------------ *)

let e_bb () =
  section "E-BB (ablation)"
    "exact correction beyond the subset-DP limit: anytime branch-and-bound \
     seeded with the strong corrector's split";
  let rows =
    List.map
      (fun (blocks, chains) ->
        let spec, members = H.blocks_instance ~blocks ~chains in
        let n = List.length members in
        let strong =
          C.split_subset C.Strong spec members
        in
        let (outcome, proven), elapsed =
          Render.time (fun () ->
              C.split_subset_anytime ~node_budget:(sm 2_000_000 100_000) spec
                members)
        in
        [ Printf.sprintf "blocks(%d,%d)" blocks chains;
          string_of_int n;
          string_of_int (List.length strong.C.parts);
          string_of_int (List.length outcome.C.parts);
          (if proven then "yes" else "no");
          fmt_s elapsed ])
      (sm [ (2, 2); (3, 2); (3, 4); (4, 4); (5, 4) ] [ (2, 2); (3, 2) ])
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right ]
       ~header:
         [ "instance"; "tasks"; "strong parts"; "B&B parts"; "proven minimum";
           "time" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-MIXED: ablation — split-only vs merge-only vs mixed resolution     *)
(* ------------------------------------------------------------------ *)

let e_mixed () =
  section "E-MIXED (ablation)"
    "the paper's open problem: interaction of splitting and merging; the \
     mixed resolver picks the cheaper repair per composite";
  let corpus =
    Views.unsound_corpus ~seed:23 ~families:Gen.all_families ~sizes:[ 24 ]
      ~per_cell:(sm 5 1)
  in
  let stats =
    List.map
      (fun (_, view) ->
        let before = View.n_composites view in
        let split_view, _ = C.correct C.Strong view in
        let mixed_view, decisions = C.resolve_auto view in
        let merges =
          List.length
            (List.filter
               (fun d -> match d.C.action with `Merge _ -> true | `Split _ -> false)
               decisions)
        in
        ( before,
          View.n_composites split_view,
          View.n_composites mixed_view,
          merges ))
      corpus
  in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 stats in
  Printf.printf "views: %d; composites before: %d\n" (List.length stats)
    (total (fun (b, _, _, _) -> b));
  Printf.printf "after split-only  correction: %d composites\n"
    (total (fun (_, s, _, _) -> s));
  Printf.printf "after mixed       resolution: %d composites (%d merge decisions)\n"
    (total (fun (_, _, m, _) -> m))
    (total (fun (_, _, _, g) -> g));
  Printf.printf
    "mixed resolution trades detail for compactness where splitting would \
     fragment the view\n"

(* ------------------------------------------------------------------ *)
(* E-SUGGEST: ablation — automatic sound view construction               *)
(* ------------------------------------------------------------------ *)

let e_suggest () =
  section "E-SUGGEST (ablation)"
    "automatic view construction (the role of [2] in the paper): sound-by-\
     design groupings vs the corpus policies that need correction";
  let module Suggest = Wolves_core.Suggest in
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun size ->
          let spec = Gen.generate family ~seed:17 ~size in
          let greedy, greedy_t =
            Render.time (fun () -> Suggest.greedy_sound_groups spec ~max_size:8)
          in
          let banded, banded_t =
            Render.time (fun () -> Suggest.optimal_sound_banding spec ~max_size:8)
          in
          let bands = Views.build ~seed:17 (Views.Topological_bands 8) spec in
          let bands_unsound =
            List.length
              (Wolves_core.Soundness.validate bands).Wolves_core.Soundness.unsound
          in
          rows :=
            [ Printf.sprintf "%s-%d" (Gen.family_name family) size;
              Printf.sprintf "%.1fx (%s)"
                (float_of_int size /. float_of_int (List.length greedy))
                (fmt_s greedy_t);
              Printf.sprintf "%.1fx (%s)"
                (float_of_int size /. float_of_int (List.length banded))
                (fmt_s banded_t);
              Printf.sprintf "%.1fx / %d unsound"
                (View.compression bands) bands_unsound ]
            :: !rows)
        (sm [ 100; 400 ] [ 100 ]))
    Gen.all_families;
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~header:
         [ "workflow"; "greedy sound (compression)";
           "optimal banding (compression)"; "naive bands (for contrast)" ]
       (List.rev !rows));
  print_endline
    "greedy/banding views are sound by construction; naive topological bands\n\
     reach similar compression but are mostly unsound and must be corrected"

(* ------------------------------------------------------------------ *)
(* E-SCHED: ablation — engine scheduling policies                       *)
(* ------------------------------------------------------------------ *)

let e_sched () =
  section "E-SCHED (ablation)"
    "execution-engine substrate: ready-queue policies vs makespan on \
     limited workers (critical path = lower bound)";
  let module Engine = Wolves_engine.Engine in
  let rows =
    List.concat_map
      (fun (family, size) ->
        List.map
          (fun workers ->
            let spec = Gen.generate family ~seed:21 ~size in
            let base policy =
              { Engine.default_config with
                Engine.workers;
                duration = (fun t -> 1.0 +. float_of_int (t mod 7));
                policy }
            in
            let makespan policy =
              (Engine.run ~config:(base policy) spec).Engine.makespan
            in
            let fifo = makespan Engine.Fifo in
            let cpf = makespan Engine.Critical_path_first in
            let sf = makespan Engine.Shortest_first in
            [ Printf.sprintf "%s-%d" (Gen.family_name family) size;
              string_of_int workers;
              Printf.sprintf "%.0f" (Engine.critical_path_length (base Engine.Fifo) spec);
              Printf.sprintf "%.0f" fifo;
              Printf.sprintf "%.0f" cpf;
              Printf.sprintf "%.0f" sf ])
          (sm [ 2; 4; 8 ] [ 2; 4 ]))
      (sm
         [ (Gen.Layered, 120); (Gen.Erdos_renyi, 120) ]
         [ (Gen.Layered, 60) ])
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right ]
       ~header:
         [ "workflow"; "workers"; "critical path"; "fifo"; "cp-first";
           "shortest-first" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-TEMPLATES: the realistic corpus — canonical scientific workflows    *)
(* ------------------------------------------------------------------ *)

let e_templates () =
  section "E-TEMPLATES"
    "\xc2\xa71 on real shapes: natural per-stage views of canonical scientific \
     workflows (Pegasus suite) are unsound and corrupt provenance; WOLVES \
     repairs them";
  let module T = Wolves_workload.Templates in
  let rows =
    List.concat_map
      (fun suite ->
        List.map
          (fun scale ->
            let spec = T.generate suite ~scale in
            let view = T.natural_view suite spec in
            let report = S.validate view in
            let stats = P.evaluate_view_items view in
            let (corrected, _), elapsed =
              Render.time (fun () -> C.correct C.Strong view)
            in
            let stats' = P.evaluate_view_items corrected in
            [ Printf.sprintf "%s-%d" (T.suite_name suite) scale;
              string_of_int (Spec.n_tasks spec);
              Printf.sprintf "%d/%d"
                (List.length report.S.unsound)
                (View.n_composites view);
              Printf.sprintf "%.1f%%" (100.0 *. P.spurious_rate stats);
              string_of_int (View.n_composites corrected);
              Printf.sprintf "%.1f%%" (100.0 *. P.spurious_rate stats');
              fmt_s elapsed ])
          (sm [ 8; 32 ] [ 4 ]))
      T.all_suites
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right; Table.Right ]
       ~header:
         [ "workflow"; "tasks"; "unsound stages"; "spurious before";
           "composites after"; "spurious after"; "correction time" ]
       rows)

(* ------------------------------------------------------------------ *)
(* E-FAULT: fault-tolerant execution — exact provenance under           *)
(* crashes+retries, checkpoint/resume work savings, deadline-degrading  *)
(* correction.                                                          *)
(* ------------------------------------------------------------------ *)

let e_fault () =
  section "E-FAULT"
    "robustness: influence queries on the provenance store stay exact under \
     crashes+retries; resume re-executes only the affected subgraph; the \
     corrector degrades optimal → strong → weak under a deadline";
  let module Engine = Wolves_engine.Engine in
  let module Store = Wolves_provenance.Store in

  (* --- (a) influence-query exactness under failure injection ---------
     Ground truth for "x influenced y in run r": salt x and replay the run
     with the same seed — crash draws are salt-independent, so the replay
     has the identical failure pattern, and y was influenced iff its output
     value changed. The store's claim is path-reachability through the
     tasks that succeeded in r. The two must agree exactly: the engine's
     succeeded set is ancestor-closed, so a succeeded path is precisely a
     flow of (changed) values. *)
  let size = sm 30 16 in
  let seeds_per_rate = sm 6 2 in
  let spec = Gen.generate Gen.Layered ~seed:42 ~size in
  let tasks = Spec.tasks spec in
  let config ?(salts = []) seed failure_rate =
    { Engine.default_config with
      Engine.workers = 4;
      failure_rate;
      seed;
      salts;
      policy = Engine.Critical_path_first;
      retries = 2;
      backoff = 0.5 }
  in
  let rates = sm [ 0.05; 0.1; 0.2; 0.35; 0.5 ] [ 0.05; 0.2 ] in
  let exact_at_02 = ref None in
  let rows_a =
    List.map
      (fun rate ->
        let store = Store.create spec in
        let runs =
          List.map
            (fun seed ->
              let trace = Engine.run ~config:(config seed rate) spec in
              match Store.record_run store (Engine.statuses trace) with
              | Ok id -> (seed, id, trace)
              | Error msg -> failwith msg)
            (List.init seeds_per_rate (fun i -> 1001 + i))
        in
        let crashed_attempts =
          List.fold_left
            (fun acc (_, _, trace) ->
              acc
              + List.length
                  (List.filter
                     (fun e -> e.Engine.outcome = Engine.Crashed)
                     trace.Engine.events))
            0 runs
        in
        let recovered =
          List.fold_left
            (fun acc (_, _, trace) ->
              acc
              + List.length
                  (List.filter
                     (fun t ->
                       Engine.n_attempts trace t > 1
                       && Engine.output_value trace t <> None)
                     tasks))
            0 runs
        in
        (* Salted replays, one per (source task, run). *)
        let salted =
          List.map
            (fun x ->
              ( x,
                List.map
                  (fun (seed, id, trace) ->
                    let t' =
                      Engine.run
                        ~config:(config ~salts:[ (x, 4242) ] seed rate)
                        spec
                    in
                    (id, trace, t'))
                  runs ))
            tasks
        in
        let queries = ref 0 and spurious = ref 0 and missing = ref 0 in
        List.iter
          (fun (x, replays) ->
            List.iter
              (fun y ->
                if x <> y then begin
                  let influenced = Store.runs_where_influences store x y in
                  List.iter
                    (fun (id, base, replay) ->
                      incr queries;
                      let claimed = List.mem id influenced in
                      let truth =
                        match
                          ( Engine.output_value base y,
                            Engine.output_value replay y )
                        with
                        | Some a, Some b -> a <> b
                        | _ -> false
                      in
                      if claimed && not truth then incr spurious;
                      if truth && not claimed then incr missing)
                    replays
                end)
              tasks)
          salted;
        if rate = 0.2 then exact_at_02 := Some (!spurious, !missing);
        Report.kv
          (Printf.sprintf "exactness_rate_%.2f" rate)
          (Json.Obj
             [ ("queries", Json.Int !queries);
               ("spurious", Json.Int !spurious);
               ("missing", Json.Int !missing) ]);
        [ Printf.sprintf "%.2f" rate;
          string_of_int (List.length runs);
          string_of_int crashed_attempts;
          string_of_int recovered;
          string_of_int !queries;
          string_of_int !spurious;
          string_of_int !missing ])
      rates
  in
  Printf.printf
    "influence queries vs salted-replay ground truth (%d tasks, retries 2):\n"
    size;
  print_endline
    (Table.render
       ~align:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right; Table.Right ]
       ~header:
         [ "failure rate"; "runs"; "crashed attempts"; "tasks recovered";
           "queries"; "spurious"; "missing" ]
       rows_a);
  (match !exact_at_02 with
   | Some (s, m) ->
     Printf.printf
       "at failure rate 0.20 with retries: %d spurious, %d missing \
        (claim: 0, 0)\n"
       s m
   | None -> ());

  (* --- (b) checkpoint/resume: only the crash cone re-executes -------- *)
  let rsize = sm 40 20 in
  let rspec = Gen.generate Gen.Layered ~seed:7 ~size:rsize in
  let duration t = 1.0 +. float_of_int (t mod 3) in
  let rconfig ?(failure_rate = 0.0) seed =
    { Engine.default_config with
      Engine.workers = 4;
      duration;
      failure_rate;
      seed;
      policy = Engine.Critical_path_first }
  in
  (* A single injected crash (no retries), whose cone is less than half the
     workload. *)
  let n = Spec.n_tasks rspec in
  let reach = Spec.reach rspec in
  let pick =
    let rec go seed =
      if seed > 5000 then failwith "E-FAULT: no single-crash seed found"
      else begin
        let trace = Engine.run ~config:(rconfig ~failure_rate:0.05 seed) rspec in
        let crashed =
          List.filter
            (fun t -> Engine.outcome_of trace t = Engine.Crashed)
            (Spec.tasks rspec)
        in
        match crashed with
        | [ c ] when Bitset.cardinal (Reach.descendants reach c) * 2 < n ->
          (seed, trace, c)
        | _ -> go (seed + 1)
      end
    in
    go 1
  in
  let seed, prior, crashed_task = pick in
  let resumed = Engine.resume ~config:(rconfig seed) prior in
  let fresh = Engine.run ~config:(rconfig seed) rspec in
  let identical =
    List.for_all
      (fun t -> Engine.output_value resumed t = Engine.output_value fresh t)
      (Spec.tasks rspec)
  in
  let reexecuted = List.length (Engine.executed_tasks resumed) in
  let frac = float_of_int reexecuted /. float_of_int n in
  let full_work = Engine.total_work (rconfig seed) rspec in
  let work_saved = 1.0 -. (resumed.Engine.busy_time /. full_work) in
  Printf.printf
    "\nresume after one crash (%d tasks, seed %d, crash at %S, cone %d):\n"
    n seed
    (Spec.task_name rspec crashed_task)
    (Bitset.cardinal (Reach.descendants reach crashed_task));
  Printf.printf
    "  re-executed %d/%d tasks (%.0f%%), work %.1f of %.1f simulated s \
     (saved %.0f%%)\n"
    reexecuted n (100.0 *. frac) resumed.Engine.busy_time full_work
    (100.0 *. work_saved);
  Printf.printf "  outputs identical to a fresh zero-failure run: %b\n"
    identical;
  Report.kv "resume_reexec_fraction" (Json.Float frac);
  Report.kv "resume_work_saved_fraction" (Json.Float work_saved);
  Report.kv "resume_outputs_identical" (Json.Bool identical);

  (* --- (c) deadline-degrading correction on the Fig. 3 gadget -------- *)
  let fspec, fview = Examples.figure3 () in
  let fmembers = View.members fview (Examples.figure3_composite fview) in
  let budget_rows =
    List.map
      (fun (label, budget, node_budget) ->
        let o =
          C.with_deadline ?node_budget ~deadline_s:budget fspec fmembers
        in
        if label = "1 ms" then
          Report.kv "deadline_1ms_tier"
            (Json.String (Format.asprintf "%a" C.pp_criterion o.C.tier));
        [ label;
          Format.asprintf "%a" C.pp_criterion o.C.tier;
          string_of_int (List.length o.C.result.C.parts);
          string_of_int o.C.result.C.checks;
          fmt_s o.C.elapsed_s;
          (match o.C.abandoned with
           | None -> "-"
           | Some c -> Format.asprintf "%a" C.pp_criterion c);
          (if o.C.proven_optimal then "yes" else "no") ])
      [ ("1 ms", 0.001, None);
        ("10 ms", 0.01, None);
        ("1 s (bb cut at 50 nodes)", 1.0, Some 50);
        ("1 s", 1.0, None) ]
  in
  Printf.printf
    "\ndeadline-degrading correction of the Fig. 3 gadget (weak needs 77 \
     checks, strong 124; budget = max(wall, checks x 100us)):\n";
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
           Table.Left; Table.Left ]
       ~header:
         [ "budget"; "tier"; "parts"; "checks"; "elapsed"; "abandoned";
           "proven min" ]
       budget_rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment kernel.      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let fig1_spec, fig1_view = Examples.figure1 () in
  ignore fig1_spec;
  let fig3_spec, fig3_view = Examples.figure3 () in
  let fig3_members = View.members fig3_view (Examples.figure3_composite fig3_view) in
  let blocks_spec, blocks_members = H.blocks_instance ~blocks:2 ~chains:2 in
  let valid_spec = Gen.generate Gen.Layered ~seed:2 ~size:500 in
  let valid_view = Views.build ~seed:2 (Views.Topological_bands 5) valid_spec in
  let prov_spec = Gen.generate Gen.Layered ~seed:5 ~size:500 in
  let prov_view = Views.build ~seed:5 (Views.Topological_bands 10) prov_spec in
  let prov_task = Spec.n_tasks prov_spec - 1 in
  [ Test.make ~name:"E-FIG1/validate"
      (Staged.stage (fun () -> Wolves_core.Soundness.validate fig1_view));
    Test.make ~name:"E-FIG3/weak"
      (Staged.stage (fun () -> C.split_subset C.Weak fig3_spec fig3_members));
    Test.make ~name:"E-FIG3/strong"
      (Staged.stage (fun () -> C.split_subset C.Strong fig3_spec fig3_members));
    Test.make ~name:"E-FIG3/optimal"
      (Staged.stage (fun () -> C.split_subset C.Optimal fig3_spec fig3_members));
    Test.make ~name:"E-QUAL+E-TIME/blocks22-weak"
      (Staged.stage (fun () -> C.split_subset C.Weak blocks_spec blocks_members));
    Test.make ~name:"E-QUAL+E-TIME/blocks22-strong"
      (Staged.stage (fun () -> C.split_subset C.Strong blocks_spec blocks_members));
    Test.make ~name:"E-QUAL+E-TIME/blocks22-optimal"
      (Staged.stage (fun () -> C.split_subset C.Optimal blocks_spec blocks_members));
    Test.make ~name:"E-VALID/validator-500"
      (Staged.stage (fun () -> Wolves_core.Soundness.validate valid_view));
    Test.make ~name:"E-SPEED/workflow-query-500"
      (Staged.stage (fun () -> P.task_ancestors prov_spec prov_task));
    Test.make ~name:"E-SPEED/view-query-500"
      (Staged.stage (fun () ->
           P.composite_ancestors prov_view
             (View.composite_of_task prov_view prov_task)));
    Test.make ~name:"E-PROV/evaluate-fig1"
      (Staged.stage (fun () -> P.evaluate_view fig1_view)) ]

let e_bechamel () =
  section "E-MICRO (bechamel)"
    "per-kernel steady-state timings (OLS on monotonic clock)";
  Report.kv "domains" (Json.Int (Par.default_domains ()));
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (sm 0.25 0.02))
      ~kde:(Some 1000) ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        (* Each Test.make above is a single-elt test; analyze its one cell. *)
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
        let analysed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name result acc ->
            let estimate =
              match Analyze.OLS.estimates result with
              | Some [ est ] -> Printf.sprintf "%.1fns" est
              | Some ests ->
                String.concat "," (List.map (Printf.sprintf "%.1f") ests)
              | None -> "-"
            in
            [ name; estimate ] :: acc)
          analysed [])
      (bechamel_tests ())
    |> List.concat
  in
  print_endline
    (Table.render ~align:[ Table.Left; Table.Right ]
       ~header:[ "kernel"; "time/run" ] (List.sort compare rows))

(* ------------------------------------------------------------------ *)
(* E-LINT: lint throughput and autofix convergence                      *)
(* ------------------------------------------------------------------ *)

let e_lint () =
  section "E-LINT"
    "static analysis at scale: the rule-driven linter (Prop 2.1 soundness \
     plus structural/DSL rules) sweeps a generated 500-spec corpus; the \
     autofix fixpoint leaves every view sound";
  let module Lint = Wolves_lint.Lint in
  let module LD = Wolves_lint.Diagnostic in
  let module LFix = Wolves_lint.Fix in
  let module Wfdsl = Wolves_lang.Wfdsl in

  (* 4 families x 5 sizes x 25 seeds = 500 specs (smoke: 4 x 2 x 5 = 40);
     every other view is perturbed toward unsoundness so the Error-severity
     path is exercised as hard as the structural rules. *)
  let sizes = sm [ 20; 40; 80; 120; 200 ] [ 20; 40 ] in
  let seeds = sm 25 5 in
  let corpus =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun size ->
            List.init seeds (fun i ->
                let seed = (size * 131) + i in
                let spec = Gen.generate family ~seed ~size in
                let view =
                  Views.build ~seed (Views.Connected_groups 4) spec
                in
                let view =
                  if i mod 2 = 0 then
                    Views.inject_unsoundness ~seed ~attempts:12 view
                  else view
                in
                (family, view)))
          sizes)
      Gen.all_families
  in
  let n_specs = List.length corpus in
  let n_tasks =
    List.fold_left
      (fun acc (_, v) -> acc + Spec.n_tasks (View.spec v))
      0 corpus
  in

  (* Render to .wf and re-parse with the source map up front, so the timed
     region is pure analysis (all three rule layers) with no I/O. *)
  let parsed =
    List.map
      (fun (family, view) ->
        match Wfdsl.of_string_with_source (Wfdsl.to_string view) with
        | Ok (_, view', source) -> (family, view', Some source)
        | Error _ -> (family, view, None))
      corpus
  in

  let per_family = Hashtbl.create 8 in
  let all = ref [] in
  let _, lint_wall =
    Render.time (fun () ->
        List.iter
          (fun (family, view, source) ->
            let ds = Lint.run ?source view in
            let name = Gen.family_name family in
            let specs, diags =
              Option.value ~default:(0, 0) (Hashtbl.find_opt per_family name)
            in
            Hashtbl.replace per_family name (specs + 1, diags + List.length ds);
            all := ds :: !all)
          parsed)
  in
  let diagnostics = List.concat !all in
  let by_severity s =
    List.length (List.filter (fun d -> d.LD.severity = s) diagnostics)
  in

  (* Autofix on a slice of the corpus: fixpoint must converge with every
     view sound afterwards. *)
  let fix_n = sm 100 20 in
  let fix_applied = ref 0 and fix_sound = ref 0 in
  let _, fix_wall =
    Render.time (fun () ->
        List.iteri
          (fun i (_, view, _) ->
            if i < fix_n then begin
              let fixed, applied = LFix.apply view in
              fix_applied := !fix_applied + List.length applied;
              if S.is_sound fixed then incr fix_sound
            end)
          parsed)
  in

  let specs_per_s = float_of_int n_specs /. lint_wall in
  let tasks_per_s = float_of_int n_tasks /. lint_wall in
  Report.kv "corpus_specs" (Json.Int n_specs);
  Report.kv "corpus_tasks" (Json.Int n_tasks);
  Report.kv "lint_wall_s" (Json.Float lint_wall);
  Report.kv "specs_per_s" (Json.Float specs_per_s);
  Report.kv "tasks_per_s" (Json.Float tasks_per_s);
  Report.kv "diagnostics_total" (Json.Int (List.length diagnostics));
  Report.kv "errors" (Json.Int (by_severity LD.Error));
  Report.kv "warnings" (Json.Int (by_severity LD.Warning));
  Report.kv "hints" (Json.Int (by_severity LD.Hint));
  Report.kv "fix_specs" (Json.Int (min fix_n n_specs));
  Report.kv "fix_wall_s" (Json.Float fix_wall);
  Report.kv "fix_applied" (Json.Int !fix_applied);
  Report.kv "fix_all_sound" (Json.Bool (!fix_sound = min fix_n n_specs));

  let rows =
    Hashtbl.fold
      (fun name (specs, diags) acc -> [ name; string_of_int specs; string_of_int diags ] :: acc)
      per_family []
  in
  print_endline
    (Table.render ~align:[ Table.Left; Table.Right; Table.Right ]
       ~header:[ "family"; "specs"; "diagnostics" ] (List.sort compare rows));
  Printf.printf
    "lint: %d specs (%d tasks) in %s  =  %.0f specs/s, %.0f tasks/s\n"
    n_specs n_tasks (fmt_s lint_wall) specs_per_s tasks_per_s;
  Printf.printf "fix: %d views, %d fixes in %s, all sound: %b\n"
    (min fix_n n_specs) !fix_applied (fmt_s fix_wall)
    (!fix_sound = min fix_n n_specs)

(* ------------------------------------------------------------------ *)
(* E-TRACE: observability overhead — off vs metrics vs event tracing    *)
(* ------------------------------------------------------------------ *)

let e_trace () =
  section "E-TRACE"
    "observability: the same workload with instrumentation off, with metric \
     histograms recording, and with a ring-buffer tracer installed; the \
     off-path must stay a single load-and-branch per probe";
  let module Trace = Wolves_trace.Trace in
  let spec = Gen.generate Gen.Layered ~seed:2 ~size:(sm 500 100) in
  let view = Views.build ~seed:2 (Views.Topological_bands 5) spec in
  let fspec, fview = Examples.figure3 () in
  let fmembers = View.members fview (Examples.figure3_composite fview) in
  (* One validator pass over a 500-task view plus one strong correction:
     both hot paths cross every instrumented probe (timers, spans, args). *)
  let workload () =
    ignore (S.validate view);
    ignore (C.split_subset C.Strong fspec fmembers)
  in
  let budget = sm 0.3 0.05 in
  (* The driver enables metrics around every section; undo that here — the
     three modes ARE the experiment — and restore on the way out. *)
  let was_enabled = Metrics.is_enabled () in
  let restore () = Metrics.set_enabled was_enabled in
  Fun.protect ~finally:restore @@ fun () ->
  Metrics.set_enabled false;
  (* Warm caches and allocator before the first timed mode, so the cold
     start does not land on the baseline and mask the real overheads. *)
  for _ = 1 to 3 do workload () done;
  (* Interleave the three modes round-robin and keep the per-mode minimum:
     timing them back-to-back instead would charge whatever heap growth and
     major-GC settling happens first entirely to one mode (measurably, the
     baseline came out ~15% *slower* than the instrumented modes that ran
     after it). The minimum over interleaved trials is robust to that. *)
  let collector = Trace.create () in
  let trials = 3 in
  let tbudget = budget /. float_of_int trials in
  let best = [| infinity; infinity; infinity |] in
  for _ = 1 to trials do
    Metrics.set_enabled false;
    best.(0) <- Float.min best.(0) (time_per_run ~budget:tbudget workload);
    Metrics.set_enabled true;
    best.(1) <- Float.min best.(1) (time_per_run ~budget:tbudget workload);
    Metrics.set_enabled false;
    best.(2) <-
      Float.min best.(2)
        (Trace.with_tracing collector (fun () ->
             time_per_run ~budget:tbudget workload))
  done;
  let off_t = best.(0) and metrics_t = best.(1) and trace_t = best.(2) in
  let recorded = Trace.length collector + Trace.dropped collector in
  let pct base t = 100.0 *. ((t /. base) -. 1.0) in
  Report.kv "baseline_s" (Json.Float off_t);
  Report.kv "metrics_s" (Json.Float metrics_t);
  Report.kv "metrics_overhead_pct" (Json.Float (pct off_t metrics_t));
  Report.kv "trace_s" (Json.Float trace_t);
  Report.kv "trace_overhead_pct" (Json.Float (pct off_t trace_t));
  Report.kv "trace_events_recorded" (Json.Int recorded);
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right ]
       ~header:[ "mode"; "time/run"; "overhead" ]
       [ [ "off (production default)"; fmt_s off_t; "-" ];
         [ "metrics histograms"; fmt_s metrics_t;
           Printf.sprintf "%+.1f%%" (pct off_t metrics_t) ];
         [ "ring-buffer tracer"; fmt_s trace_t;
           Printf.sprintf "%+.1f%%" (pct off_t trace_t) ] ]);
  Printf.printf "tracer recorded %d events across the timed runs\n" recorded

(* ------------------------------------------------------------------ *)
(* E-PAR                                                                *)
(* ------------------------------------------------------------------ *)

let e_par () =
  section "E-PAR"
    "scaling claim: closure construction and validation parallelise across \
     domains with byte-identical results at every domain count";
  let size = sm 30_000 3_000 in
  let spec = Gen.generate Gen.Layered ~seed:11 ~size in
  let g = Spec.graph spec in
  let view =
    Views.build ~seed:11 (Views.Topological_bands (sm 300 30)) spec
  in
  (* Force the spec's cached closure once so the validator sweep below times
     the composite checks, not a first-query closure build. *)
  ignore (Spec.reach spec);
  Report.kv "cores" (Json.Int (Par.recommended_domains ()));
  Report.kv "size" (Json.Int size);
  let saved = Par.default_domains () in
  Fun.protect ~finally:(fun () -> Par.set_default_domains saved) @@ fun () ->
  let budget = sm 0.5 0.1 in
  let reference = ref None in
  let measurements =
    List.map
      (fun d ->
        Par.set_default_domains d;
        let closure = ref None in
        let closure_t =
          time_per_run ~budget (fun () -> closure := Some (Reach.compute g))
        in
        let report = ref None in
        let validate_t =
          time_per_run ~budget (fun () ->
              report := Some (S.validate ~domains:d view))
        in
        let closure = Option.get !closure and report = Option.get !report in
        let identical =
          match !reference with
          | None ->
            reference := Some (closure, report.S.unsound);
            true
          | Some (c1, u1) ->
            Reach.equal c1 closure && u1 = report.S.unsound
        in
        Report.kv (Printf.sprintf "closure_s_d%d" d) (Json.Float closure_t);
        Report.kv (Printf.sprintf "validate_s_d%d" d) (Json.Float validate_t);
        (d, closure_t, validate_t, identical))
      [ 1; 2; 4; 8 ]
  in
  let base_closure, base_validate =
    match measurements with
    | (_, c, v, _) :: _ -> (c, v)
    | [] -> (0.0, 0.0)
  in
  (match List.rev measurements with
   | (_, c, v, _) :: _ ->
     Report.kv "closure_speedup_max" (Json.Float (base_closure /. c));
     Report.kv "validate_speedup_max" (Json.Float (base_validate /. v))
   | [] -> ());
  print_endline
    (Table.render
       ~align:
         [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Left ]
       ~header:
         [ "domains"; "closure"; "speedup"; "validate"; "speedup";
           "identical" ]
       (List.map
          (fun (d, c, v, identical) ->
            [ string_of_int d;
              fmt_s c;
              Printf.sprintf "%.2fx" (base_closure /. c);
              fmt_s v;
              Printf.sprintf "%.2fx" (base_validate /. v);
              string_of_bool identical ])
          measurements));
  Printf.printf "%d hardware core(s) available to this run\n"
    (Par.recommended_domains ());
  if List.exists (fun (_, _, _, identical) -> not identical) measurements
  then failwith "E-PAR: parallel results diverge from the sequential run"

(* ------------------------------------------------------------------ *)
(* E-STORE                                                              *)
(* ------------------------------------------------------------------ *)

let e_store () =
  section "E-STORE"
    "durability: WAL append throughput, crash-recovery time as the log \
     grows, and a fault-injection sweep where every crash point must \
     recover all acknowledged records";
  let module Wstore = Wolves_storage.Store in
  let module Sio = Wolves_storage.Storage_io in
  let rec rm_rf path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()
  in
  let fresh_dir name =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "wolves_bench_store_%s" name)
    in
    rm_rf dir;
    dir
  in
  let ok = function
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "E-STORE: %a" Wstore.pp_error e)
  in
  let value_bytes = 256 in
  let value i =
    let b = Bytes.create value_bytes in
    let rng = Prng.create (i lxor 0x570E) in
    for j = 0 to value_bytes - 1 do
      Bytes.set b j (Char.chr (32 + Prng.int rng 95))
    done;
    Bytes.to_string b
  in
  let config = { Wstore.default_config with Wstore.segment_bytes = 1 lsl 20 } in
  let ingest ?(sync = false) dir n =
    let store = ok (Wstore.init ~config dir) in
    for i = 0 to n - 1 do
      ok
        (Wstore.append store ~sync Wstore.Workflow
           ~id:(Printf.sprintf "wf-%05d" i) (value i))
    done;
    ok (Wstore.close store)
  in
  (* Append throughput: batched (fsync on close) vs synced every record. *)
  let n_batch = sm 20_000 2_000 in
  let dir = fresh_dir "ingest" in
  let (), batch_t = Render.time (fun () -> ingest dir n_batch) in
  rm_rf dir;
  let n_sync = sm 2_000 200 in
  let dir = fresh_dir "ingest_sync" in
  let (), sync_t = Render.time (fun () -> ingest ~sync:true dir n_sync) in
  rm_rf dir;
  let rate n t = float_of_int n /. Float.max t 1e-9 in
  let mb n t =
    float_of_int (n * (value_bytes + 27)) /. 1e6 /. Float.max t 1e-9
  in
  Report.kv "ingest_records" (Json.Int n_batch);
  Report.kv "ingest_records_per_s" (Json.Float (rate n_batch batch_t));
  Report.kv "ingest_synced_records_per_s" (Json.Float (rate n_sync sync_t));
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~header:[ "mode"; "records"; "records/s"; "MB/s" ]
       [ [ "batched (sync on close)"; string_of_int n_batch;
           Printf.sprintf "%.0f" (rate n_batch batch_t);
           Printf.sprintf "%.1f" (mb n_batch batch_t) ];
         [ "synced every append"; string_of_int n_sync;
           Printf.sprintf "%.0f" (rate n_sync sync_t);
           Printf.sprintf "%.1f" (mb n_sync sync_t) ] ]);
  (* Recovery time vs log size: tear the tail of the biggest segment so
     every reopen scans, truncates, and rewrites the catalog. *)
  let recovery_rows =
    List.map
      (fun n ->
        let dir = fresh_dir (Printf.sprintf "recover_%d" n) in
        ingest dir n;
        let seg =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".seg")
          |> List.map (fun f -> Filename.concat dir f)
          |> List.sort (fun a b ->
                 compare (Unix.stat b).Unix.st_size (Unix.stat a).Unix.st_size)
          |> List.hd
        in
        Unix.truncate seg ((Unix.stat seg).Unix.st_size - 13);
        let (store, recovery), t = Render.time (fun () -> ok (Wstore.open_ dir)) in
        let stats = Wstore.stats store in
        ok (Wstore.close store);
        rm_rf dir;
        Report.kv
          (Printf.sprintf "recovery_s_%d" n)
          (Json.Float t);
        [ string_of_int n;
          Printf.sprintf "%.1f" (float_of_int stats.Wstore.n_bytes /. 1e6);
          string_of_int (List.length recovery.Wstore.truncations);
          fmt_s t ])
      (sm [ 2_000; 8_000; 32_000 ] [ 500; 2_000 ])
  in
  print_endline
    (Table.render
       ~align:[ Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "records"; "MB"; "truncations"; "recovery" ]
       recovery_rows);
  (* Fault-injection sweep: crash at (a sample of) every mutating operation
     of an ingest; each reopen must recover every acknowledged record. *)
  let n_crash = sm 60 20 in
  let faulty_ingest dir plan =
    let io, injector = Sio.faulty plan Sio.system in
    let acked = ref 0 in
    (try
       let store = ok (Wstore.init ~io ~config dir) in
       for i = 0 to n_crash - 1 do
         ok
           (Wstore.append store ~sync:true Wstore.Workflow
              ~id:(Printf.sprintf "wf-%05d" i) (value i));
         incr acked
       done;
       ok (Wstore.close store)
     with Sio.Crashed _ -> ());
    (!acked, injector)
  in
  let dir = fresh_dir "crash_probe" in
  let _, probe = faulty_ingest dir (Sio.Crash_after_ops max_int) in
  rm_rf dir;
  let total_ops = probe.Sio.ops_seen in
  let step = sm 1 (max 1 (total_ops / 25)) in
  let points = ref 0 in
  let op = ref 0 in
  let (), sweep_t =
    Render.time (fun () ->
        while !op < total_ops do
          let dir = fresh_dir "crash" in
          let acked, _ = faulty_ingest dir (Sio.Crash_after_ops !op) in
          (match Wstore.open_ dir with
           | Error e ->
             if acked > 0 then
               failwith
                 (Format.asprintf "E-STORE: crash at op %d unrecoverable: %a"
                    !op Wstore.pp_error e)
           | Ok (store, _) ->
             let recovered = List.length (ok (Wstore.records store)) in
             ok (Wstore.close store);
             if recovered < acked then
               failwith
                 (Printf.sprintf
                    "E-STORE: crash at op %d lost records (%d acked, %d \
                     recovered)"
                    !op acked recovered));
          rm_rf dir;
          incr points;
          op := !op + step
        done)
  in
  Report.kv "crash_points" (Json.Int !points);
  Report.kv "crash_total_ops" (Json.Int total_ops);
  Printf.printf
    "crash matrix: %d crash points (of %d mutating ops, step %d) — every \
     acknowledged record recovered, in %s\n"
    !points total_ops step (fmt_s sweep_t)

(* ------------------------------------------------------------------ *)
(* E-ANALYZE                                                            *)
(* ------------------------------------------------------------------ *)

(* Rebuild [spec] with deterministic, consistent, deliberately partial
   dependency annotations: roughly half the interior tasks get entries for
   all but one output (so inference has completions to do), each entry
   drawn from the task's real producers with one input sometimes dropped
   (so dead data shows up too). *)
let sprinkle_annotations ~seed spec =
  let rng = Prng.create (seed lxor 0xA11075) in
  let b = Spec.Builder.create ~name:(Spec.name spec) () in
  List.iter (fun t -> ignore (Spec.Builder.add_task_exn b (Spec.task_name spec t)))
    (Spec.tasks spec);
  List.iter
    (fun t ->
      List.iter
        (fun c ->
          Spec.Builder.add_dependency_exn b (Spec.task_name spec t)
            (Spec.task_name spec c))
        (Spec.consumers spec t))
    (Spec.tasks spec);
  List.iter
    (fun t ->
      let inputs = Spec.producers spec t and outputs = Spec.consumers spec t in
      if inputs <> [] && List.length outputs >= 2 && Prng.bool rng then
        List.iteri
          (fun i c ->
            if i < List.length outputs - 1 then begin
              let dropped = Prng.int rng (List.length inputs) in
              let kept =
                List.filteri
                  (fun j _ -> j <> dropped || List.length inputs = 1)
                  inputs
              in
              Spec.Builder.annotate_exn b (Spec.task_name spec t)
                ~output:(Spec.task_name spec c)
                (List.map (Spec.task_name spec) kept)
            end)
          outputs)
    (Spec.tasks spec);
  Spec.Builder.finish_exn b

let e_analyze () =
  section "E-ANALYZE"
    "analysis claim: annotation inference completes whole corpora at \
     interactive rates; reference rates for the dense closure's build, pair \
     probes and row scans on a wide layered spec";
  let size = sm 30_000 3_000 in
  let spec = Gen.generate Gen.Layered ~seed:11 ~size in
  let g = Spec.graph spec in
  Report.kv "size" (Json.Int size);
  (* --- construction --- *)
  let budget = sm 0.5 0.1 in
  let reach = ref None in
  let closure_build_t =
    time_per_run ~budget (fun () -> reach := Some (Reach.compute g))
  in
  let reach = Option.get !reach in
  Report.kv "closure_build_s" (Json.Float closure_build_t);
  (* descendant and ancestor rows *)
  let closure_words = 2 * size * ((size + 62) / 63) in
  Report.kv "closure_words" (Json.Int closure_words);
  (* --- probe throughput --- *)
  let n_pairs = sm 200_000 20_000 in
  let rng = Prng.create 0xBEEF in
  let pairs =
    Array.init n_pairs (fun _ -> (Prng.int rng size, Prng.int rng size))
  in
  (* a reusable singleton bitset makes the row probe as cheap as it can be:
     the O(n/w) subset scan is the cost being measured, not allocation *)
  let singleton = Bitset.create size in
  let rate t = float_of_int n_pairs /. t in
  let row_hits = ref 0 in
  let row_t =
    time_per_run ~budget (fun () ->
        row_hits := 0;
        Array.iter
          (fun (u, v) ->
            Bitset.add singleton v;
            if Reach.row_subset reach singleton u then incr row_hits;
            Bitset.remove singleton v)
          pairs)
  in
  let pair_hits = ref 0 in
  let pair_t =
    time_per_run ~budget (fun () ->
        pair_hits := 0;
        Array.iter
          (fun (u, v) -> if Reach.reaches reach u v then incr pair_hits)
          pairs)
  in
  if !row_hits <> !pair_hits then
    failwith "E-ANALYZE: closure row scans disagree with pair probes";
  Report.kv "closure_row_probes_per_s" (Json.Float (rate row_t));
  Report.kv "closure_pair_probes_per_s" (Json.Float (rate pair_t));
  (* --- inference throughput over an annotated corpus --- *)
  let corpus_n = sm 500 50 in
  let corpus =
    List.init corpus_n (fun i ->
        let family =
          List.nth Gen.all_families (i mod List.length Gen.all_families)
        in
        sprinkle_annotations ~seed:i
          (Gen.generate family ~seed:(i * 7 + 1) ~size:40))
  in
  let entries = ref 0 and iters = ref 0 in
  let _, infer_t =
    Render.time (fun () ->
        List.iter
          (fun s ->
            let r = Annot.infer s in
            iters := !iters + r.Annot.iterations;
            List.iter
              (fun inf ->
                entries := !entries + List.length inf.Annot.inf_entries)
              r.Annot.inferred)
          corpus)
  in
  Report.kv "corpus_specs" (Json.Int corpus_n);
  Report.kv "inference_specs_per_s"
    (Json.Float (float_of_int corpus_n /. infer_t));
  Report.kv "inferred_entries" (Json.Int !entries);
  Printf.printf
    "closure over %d tasks: built in %s, %d words, %.1fM pair probes/s, \
     %.2fM row scans/s\n\
     inference: %d specs with partial annotations -> %d inferred entries \
     in %s (%.0f specs/s, %.1f flow fixpoints/spec)\n"
    size (fmt_s closure_build_t) closure_words (rate pair_t /. 1e6)
    (rate row_t /. 1e6) corpus_n !entries (fmt_s infer_t)
    (float_of_int corpus_n /. infer_t)
    (float_of_int !iters /. float_of_int corpus_n)

(* ------------------------------------------------------------------ *)
(* E-SERVE                                                              *)
(* ------------------------------------------------------------------ *)

module Srv = Wolves_server.Server
module Scl = Wolves_server.Client
module Ssvc = Wolves_server.Service
module Spr = Wolves_server.Protocol

let e_serve () =
  section "E-SERVE"
    "service claim: a pinned corpus serves concurrent validate/query \
     traffic at corpus scale with bounded tail latency, sheds overload \
     with immediate OVERLOADED replies, and degrades correction tiers \
     rather than deadlines under queueing";
  let module T = Wolves_workload.Templates in
  (* Corpus: the layered random family plus the Montage suite — the same
     two shapes EXPERIMENTS.md uses for the service scenario. *)
  let layered =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Layered ~seed:(100 + size) ~size in
        let view = Views.build ~seed:size (Views.Topological_bands 8) spec in
        (Printf.sprintf "layered-%d" size, view))
      (sm [ 60; 120; 240 ] [ 30 ])
  in
  let montage =
    List.map
      (fun scale ->
        let spec = T.generate T.Montage ~scale in
        (Printf.sprintf "montage-%d" scale, T.natural_view T.Montage spec))
      (sm [ 8; 16 ] [ 4 ])
  in
  let corpus = layered @ montage in
  let service, load_s = Render.time (fun () -> Ssvc.load corpus) in
  let n_tasks =
    List.fold_left (fun a (_, v) -> a + Spec.n_tasks (View.spec v)) 0 corpus
  in
  Printf.printf "corpus: %d workflows, %d tasks, pinned in %s\n"
    (Ssvc.size service) n_tasks (fmt_s load_s);
  Report.kv "corpus_workflows" (Json.Int (Ssvc.size service));
  Report.kv "corpus_tasks" (Json.Int n_tasks);
  Report.kv "load_s" (Json.Float load_s);
  let sock_path =
    let p = Filename.temp_file "wolves-bench" ".sock" in
    Sys.remove p;
    p
  in
  let config =
    { Srv.default_config with workers = 4; queue_depth = 64 }
  in
  let srv =
    match Srv.start ~config (Srv.Unix_socket sock_path) service with
    | Ok s -> s
    | Error e -> failwith ("E-SERVE: start: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      Srv.stop srv;
      if Sys.file_exists sock_path then Sys.remove sock_path)
  @@ fun () ->
  (* Byte-identity spot check: the reply over the socket is the reply of
     the direct library call, rendered. *)
  (match Scl.connect (`Unix sock_path) with
   | Error e -> failwith ("E-SERVE: connect: " ^ e)
   | Ok c ->
     List.iter
       (fun (id, _) ->
         let line = "VALIDATE " ^ id in
         let direct =
           match Spr.parse line with
           | Ok req -> Srv.handle_request srv req
           | Error _ -> assert false
         in
         match Scl.request c line with
         | Ok got when Spr.render got = Spr.render direct -> ()
         | Ok got ->
           failwith
             (Printf.sprintf
                "E-SERVE: socket reply diverges from direct call for %s:\n%s"
                id (Spr.render got))
         | Error e -> failwith (Printf.sprintf "E-SERVE: %s: %s" line e))
       corpus;
     ignore (Scl.request c "QUIT");
     Scl.close c);
  print_endline "byte-identity: socket replies = direct library calls";
  (* Sustained closed-loop traffic per family. *)
  let duration_s = sm 1.5 0.25 in
  let clients = sm 4 2 in
  let pctl sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))
  in
  let families =
    [ ("layered", layered); ("montage", montage) ]
  in
  let rows =
    List.map
      (fun (fam, entries) ->
        let requests =
          Array.of_list
            (List.concat_map
               (fun (id, _) ->
                 [ "VALIDATE " ^ id;
                   Printf.sprintf "QUERY %s composites(ancestors(sinks))" id;
                   "LINT " ^ id ])
               entries)
        in
        let lats, wall =
          Render.time (fun () ->
              let doms =
                List.init clients (fun _ ->
                    Domain.spawn (fun () ->
                        match Scl.connect ~timeout_s:10. (`Unix sock_path) with
                        | Error e -> failwith ("E-SERVE: connect: " ^ e)
                        | Ok c ->
                          let lats = ref [] in
                          let k = ref 0 in
                          let stop_at = Unix.gettimeofday () +. duration_s in
                          while Unix.gettimeofday () < stop_at do
                            let req = requests.(!k mod Array.length requests) in
                            incr k;
                            let t0 = Unix.gettimeofday () in
                            (match Scl.request c req with
                             | Ok (Spr.Ok_lines _) -> ()
                             | Ok r ->
                               failwith
                                 (Printf.sprintf "E-SERVE: %s -> %s" req
                                    (String.trim (Spr.render r)))
                             | Error e ->
                               failwith
                                 (Printf.sprintf "E-SERVE: %s -> %s" req e));
                            lats := (Unix.gettimeofday () -. t0) :: !lats
                          done;
                          ignore (Scl.request c "QUIT");
                          Scl.close c;
                          !lats))
              in
              List.concat_map Domain.join doms)
        in
        let sorted = Array.of_list lats in
        Array.sort compare sorted;
        let n = Array.length sorted in
        let qps = float_of_int n /. wall in
        let p50 = pctl sorted 0.5 and p99 = pctl sorted 0.99 in
        Report.kv (fam ^ "_requests") (Json.Int n);
        Report.kv (fam ^ "_qps") (Json.Float qps);
        Report.kv (fam ^ "_p50_ms") (Json.Float (p50 *. 1e3));
        Report.kv (fam ^ "_p99_ms") (Json.Float (p99 *. 1e3));
        [ fam; string_of_int (List.length entries); string_of_int clients;
          string_of_int n; Printf.sprintf "%.0f" qps; fmt_s p50; fmt_s p99 ])
      families
  in
  print_endline
    (Table.render
       ~align:
         [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
           Table.Right; Table.Right ]
       ~header:
         [ "family"; "workflows"; "clients"; "requests"; "qps"; "p50"; "p99" ]
       rows);
  let s = Srv.stats srv in
  Printf.printf "server: %d connections, %d requests, %d errors, %d shed\n"
    s.Srv.connections s.Srv.requests s.Srv.errors s.Srv.shed;
  if s.Srv.errors > 0 then failwith "E-SERVE: load run produced ERR replies";
  (* Overload: one worker wedged by a stalled client, a tiny queue, and
     bursts of arrivals — everything past the queue must get an immediate
     OVERLOADED, and the server must keep serving afterwards. *)
  let shed_path =
    let p = Filename.temp_file "wolves-bench-shed" ".sock" in
    Sys.remove p;
    p
  in
  let shed_config =
    { Srv.default_config with
      workers = 1;
      queue_depth = 2;
      read_timeout_s = 30.;
      retry_after_ms = 50 }
  in
  let shed_srv =
    match Srv.start ~config:shed_config (Srv.Unix_socket shed_path) service with
    | Ok s -> s
    | Error e -> failwith ("E-SERVE: shed start: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      Srv.stop shed_srv;
      if Sys.file_exists shed_path then Sys.remove shed_path)
  @@ fun () ->
  let raw_connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX shed_path);
    fd
  in
  let hog = raw_connect () in
  ignore (Unix.write_substring hog "VALID" 0 5);
  Unix.sleepf 0.2;
  let classify fd =
    (* A shed connection carries OVERLOADED within microseconds; a queued
       one stays silent until the worker frees up. *)
    let module N = Wolves_server.Net_io in
    let conn = N.of_fd ~read_timeout_s:0.25 fd in
    let buf = Bytes.create 64 in
    let verdict =
      match conn.N.recv buf 0 64 with
      | exception N.Timeout -> `Queued
      | exception N.Net_error _ -> `Queued
      | 0 -> `Queued
      | n when String.length (Bytes.sub_string buf 0 n) >= 10
               && Bytes.sub_string buf 0 10 = "OVERLOADED" -> `Shed
      | _ -> `Other
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    verdict
  in
  let shed_rows =
    List.map
      (fun burst ->
        let conns = List.init burst (fun _ -> raw_connect ()) in
        Unix.sleepf 0.2;
        let verdicts = List.map classify conns in
        let shed = List.length (List.filter (( = ) `Shed) verdicts) in
        let queued = List.length (List.filter (( = ) `Queued) verdicts) in
        let rate = float_of_int shed /. float_of_int burst in
        Report.kv
          (Printf.sprintf "shed_burst_%d" burst)
          (Json.Obj
             [ ("shed", Json.Int shed); ("queued", Json.Int queued);
               ("rate", Json.Float rate) ]);
        [ string_of_int burst; string_of_int shed; string_of_int queued;
          Printf.sprintf "%.0f%%" (100. *. rate) ])
      (sm [ 4; 8; 16 ] [ 4; 8 ])
  in
  print_endline
    (Table.render
       ~align:[ Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "burst"; "shed"; "queued"; "shed rate" ]
       shed_rows);
  (* the wedged worker comes back and honest clients are served again *)
  (try Unix.close hog with Unix.Unix_error _ -> ());
  Unix.sleepf 0.1;
  (match Scl.connect (`Unix shed_path) with
   | Error e -> failwith ("E-SERVE: reconnect after overload: " ^ e)
   | Ok c ->
     (match Scl.request c "PING" with
      | Ok (Spr.Ok_lines [ "pong" ]) -> ()
      | _ -> failwith "E-SERVE: server unresponsive after overload");
     ignore (Scl.request c "QUIT");
     Scl.close c);
  let shed_total = (Srv.stats shed_srv).Srv.shed in
  Report.kv "shed_total" (Json.Int shed_total);
  if shed_total = 0 then failwith "E-SERVE: overload never shed";
  Printf.printf "overload recovered: %d total shed, server still serving\n"
    shed_total

(* ------------------------------------------------------------------ *)
(* E-OBS                                                               *)
(* ------------------------------------------------------------------ *)

module Olog = Wolves_obs.Log
module Oprom = Wolves_obs.Prom
module Dash = Wolves_server.Dashboard

let e_obs () =
  section "E-OBS"
    "observability claim: structured access logging, Prometheus METRICS \
     exposition under concurrent scraping, and sampled tracing together \
     cost a small fraction of plain closed-loop throughput; a live scrape \
     passes the in-repo exposition checker and feeds the wolves top panel";
  let module T = Wolves_workload.Templates in
  (* The E-SERVE corpus shapes, so the overhead is measured on the same
     traffic the service benchmark publishes. *)
  let layered =
    List.map
      (fun size ->
        let spec = Gen.generate Gen.Layered ~seed:(100 + size) ~size in
        let view = Views.build ~seed:size (Views.Topological_bands 8) spec in
        (Printf.sprintf "layered-%d" size, view))
      (sm [ 60; 120; 240 ] [ 30 ])
  in
  let montage =
    List.map
      (fun scale ->
        let spec = T.generate T.Montage ~scale in
        (Printf.sprintf "montage-%d" scale, T.natural_view T.Montage spec))
      (sm [ 8; 16 ] [ 4 ])
  in
  let corpus = layered @ montage in
  let service = Ssvc.load corpus in
  let requests =
    Array.of_list
      (List.concat_map
         (fun (id, _) ->
           [ "VALIDATE " ^ id;
             Printf.sprintf "QUERY %s composites(ancestors(sinks))" id;
             "LINT " ^ id ])
         corpus)
  in
  let duration_s = sm 2.0 0.3 in
  let clients = sm 4 2 in
  (* Closed-loop load against a running server; returns completed requests,
     wall time, and process CPU time consumed by the burst (clients, both
     servers, scraper — everything lives in this process). *)
  let proc_cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let run_load sock_path =
    let cpu0 = proc_cpu () in
    let counts, wall =
      Render.time (fun () ->
          let doms =
            List.init clients (fun _ ->
                Domain.spawn (fun () ->
                    match Scl.connect ~timeout_s:10. (`Unix sock_path) with
                    | Error e -> failwith ("E-OBS: connect: " ^ e)
                    | Ok c ->
                      let k = ref 0 and n = ref 0 in
                      let stop_at = Unix.gettimeofday () +. duration_s in
                      while Unix.gettimeofday () < stop_at do
                        let req = requests.(!k mod Array.length requests) in
                        incr k;
                        (match Scl.request c req with
                         | Ok (Spr.Ok_lines _) -> incr n
                         | Ok r ->
                           failwith
                             (Printf.sprintf "E-OBS: %s -> %s" req
                                (String.trim (Spr.render r)))
                         | Error e ->
                           failwith (Printf.sprintf "E-OBS: %s -> %s" req e))
                      done;
                      ignore (Scl.request c "QUIT");
                      Scl.close c;
                      !n))
          in
          List.map Domain.join doms)
    in
    (List.fold_left ( + ) 0 counts, wall, proc_cpu () -. cpu0)
  in
  (* Closed-loop qps in a shared process is noisy, and it drifts: heap
     growth and major-GC settling make whichever configuration runs later
     look slower (the E-MICRO harness measured the same effect at ~15%).
     So all the servers stay up for the whole experiment, bursts alternate
     round-robin across configurations (so drift lands evenly on every
     side), each side aggregates requests and CPU over all its bursts, and
     qps is requests per process-CPU-second rather than per wall second,
     which cancels whatever else the host was doing. *)
  let trials = sm 6 2 in
  let with_obs_server config f =
    let sock_path =
      let p = Filename.temp_file "wolves-bench-obs" ".sock" in
      Sys.remove p;
      p
    in
    let srv =
      match Srv.start ~config (Srv.Unix_socket sock_path) service with
      | Ok s -> s
      | Error e -> failwith ("E-OBS: start: " ^ e)
    in
    Fun.protect
      ~finally:(fun () ->
        Srv.stop srv;
        if Sys.file_exists sock_path then Sys.remove sock_path)
      (fun () -> f sock_path srv)
  in
  (* The server parks one worker per live connection, so size the pool for
     the clients plus the scraper plus slack: otherwise the observed run
     measures connection starvation, not observability cost. *)
  let base_config =
    { Srv.default_config with workers = clients + 2; queue_depth = 64 }
  in
  let traced_config = { base_config with trace_sample = 64 } in
  let log_path = Filename.temp_file "wolves-bench-obs" ".jsonl" in
  let log_oc = open_out log_path in
  let with_sink f =
    Olog.set ~level:Olog.Info (Some (Olog.channel_sink log_oc));
    Fun.protect ~finally:(fun () -> Olog.set None) f
  in
  (* Three servers, alive for the whole experiment:
       plain    — the control: no sink, no sampling, nobody scraping;
       exposed  — every request access-logged, a scraper domain polling
                  METRICS during its bursts (the paper's ≤5% claim);
       traced   — access-logged and every 64th request traced, to price
                  the sampling tier separately.
     The sink and the scraper are switched on only around the bursts that
     pay for them, so the control never does. *)
  let ( (qps_plain, n_plain, qps_exp, n_exp, qps_tr, n_tr),
        scrapes, last_page, top_panel, trace_drained ) =
    with_obs_server base_config (fun plain_path _ ->
    with_obs_server base_config (fun exp_path _ ->
    with_obs_server traced_config (fun tr_path tr_srv ->
        let scrape_on = Atomic.make false in
        let stop_scraping = Atomic.make false in
        let scraper =
          Domain.spawn (fun () ->
              match Scl.connect ~timeout_s:10. (`Unix exp_path) with
              | Error e -> failwith ("E-OBS: scraper connect: " ^ e)
              | Ok c ->
                let pages = ref 0 and last = ref [] in
                let scrape () =
                  match Scl.request c "METRICS" with
                  | Ok (Spr.Ok_lines lines) ->
                    incr pages;
                    last := lines
                  | Ok r ->
                    failwith
                      ("E-OBS: METRICS -> " ^ String.trim (Spr.render r))
                  | Error e -> failwith ("E-OBS: METRICS -> " ^ e)
                in
                (* 2Hz is already very aggressive for a scraper (Prometheus
                   defaults to one scrape per 15s) *)
                while not (Atomic.get stop_scraping) do
                  (* keepalive outside observed bursts: the parked
                     connection must not hit the server's idle timeout *)
                  if Atomic.get scrape_on then scrape ()
                  else ignore (Scl.request c "PING");
                  Unix.sleepf 0.5
                done;
                (* one final scrape so the checked page reflects the whole
                   run (and so the checker always has a page) *)
                scrape ();
                ignore (Scl.request c "QUIT");
                Scl.close c;
                (!pages, !last))
        in
        (* Warm every server (code paths, allocator) off the clock. *)
        ignore (run_load plain_path);
        ignore (run_load exp_path);
        ignore (run_load tr_path);
        let total_p = ref 0 and cpu_p = ref 0.0 in
        let total_e = ref 0 and cpu_e = ref 0.0 in
        let total_t = ref 0 and cpu_t = ref 0.0 in
        for _ = 1 to trials do
          let n, _, cpu = run_load plain_path in
          total_p := !total_p + n;
          cpu_p := !cpu_p +. cpu;
          with_sink (fun () ->
              Atomic.set scrape_on true;
              let n, _, cpu = run_load exp_path in
              Atomic.set scrape_on false;
              total_e := !total_e + n;
              cpu_e := !cpu_e +. cpu;
              let n, _, cpu = run_load tr_path in
              total_t := !total_t + n;
              cpu_t := !cpu_t +. cpu)
        done;
        let measured =
          ( float_of_int !total_p /. !cpu_p, !total_p,
            float_of_int !total_e /. !cpu_e, !total_e,
            float_of_int !total_t /. !cpu_t, !total_t )
        in
        Atomic.set stop_scraping true;
        let scrapes, last_page = Domain.join scraper in
        (* the wolves top panel, rendered exactly as `wolves top` does,
           from two polls of the still-live scraped server *)
        let top_panel =
          match Scl.connect ~timeout_s:10. (`Unix exp_path) with
          | Error e -> failwith ("E-OBS: top connect: " ^ e)
          | Ok c ->
            Fun.protect
              ~finally:(fun () ->
                ignore (Scl.request c "QUIT");
                Scl.close c)
              (fun () ->
                let prev =
                  match Dash.fetch c with
                  | Ok s -> s
                  | Error e -> failwith ("E-OBS: top fetch: " ^ e)
                in
                Unix.sleepf 0.1;
                match Dash.fetch c with
                | Ok s -> Dash.render ~prev s
                | Error e -> failwith ("E-OBS: top fetch: " ^ e))
        in
        let trace_drained = List.length (Srv.trace_events tr_srv) in
        (measured, scrapes, last_page, top_panel, trace_drained))))
  in
  close_out log_oc;
  let overhead_pct = 100. *. (1. -. (qps_exp /. qps_plain)) in
  (* the live scrape must satisfy the same checker CI runs *)
  (if last_page = [] then failwith "E-OBS: scraper never completed a scrape");
  (match Oprom.check (String.concat "\n" last_page ^ "\n") with
   | Ok samples ->
     Printf.printf "live METRICS scrape: %d samples, checker ok\n" samples;
     Report.kv "scrape_samples" (Json.Int samples)
   | Error e -> failwith ("E-OBS: live scrape fails the checker: " ^ e));
  let log_records =
    In_channel.with_open_text log_path (fun ic ->
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        !n)
  in
  Sys.remove log_path;
  (* every completed request on the logged servers produced one access-log
     record (the QUIT and METRICS traffic is logged too, so the file can
     only be larger) *)
  if log_records < n_exp + n_tr then
    failwith
      (Printf.sprintf "E-OBS: %d requests but only %d access-log records"
         (n_exp + n_tr) log_records);
  let pct q = 100. *. (1. -. (q /. qps_plain)) in
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~header:[ "configuration"; "requests"; "qps/cpu"; "overhead" ]
       [ [ "plain"; string_of_int n_plain; Printf.sprintf "%.0f" qps_plain;
           "" ];
         [ "log+scrape"; string_of_int n_exp; Printf.sprintf "%.0f" qps_exp;
           Printf.sprintf "%.1f%%" (pct qps_exp) ];
         [ "log+trace 1/64"; string_of_int n_tr;
           Printf.sprintf "%.0f" qps_tr;
           Printf.sprintf "%.1f%%" (pct qps_tr) ] ]);
  Printf.printf
    "access-logging + exposition overhead: %.1f%% qps (%d scrapes, %d \
     access-log records, %d trace events retained)\n"
    overhead_pct scrapes log_records trace_drained;
  print_endline "wolves top (one-shot, from the live exposition):";
  print_string top_panel;
  Report.kv "qps_plain" (Json.Float qps_plain);
  Report.kv "qps_observed" (Json.Float qps_exp);
  Report.kv "qps_traced" (Json.Float qps_tr);
  Report.kv "overhead_pct" (Json.Float overhead_pct);
  Report.kv "trace_overhead_pct" (Json.Float (pct qps_tr));
  Report.kv "scrapes" (Json.Int scrapes);
  Report.kv "access_log_records" (Json.Int log_records);
  Report.kv "trace_events" (Json.Int trace_drained)

(* ------------------------------------------------------------------ *)
(* Regression gate: --compare BASELINE.json                             *)
(* ------------------------------------------------------------------ *)

(* The comparator itself lives in [Wolves_cli.Benchgate] (unit-tested,
   including the missing-section direction); this wrapper does the IO and
   rendering. *)
let compare_against ~threshold ~require_all baseline_path walls =
  let text =
    try In_channel.with_open_text baseline_path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "cannot read baseline: %s\n" msg;
      exit 2
  in
  match Json.of_string text with
  | Error msg ->
    Printf.eprintf "%s: %s\n" baseline_path msg;
    exit 2
  | Ok doc ->
    (* Version-less artifacts are schema v1 (same sections shape). *)
    let result =
      Benchgate.compare ~threshold ~slack_s:Benchgate.default_slack_s
        ~require_all ~smoke:!smoke ~baseline:doc walls
    in
    if result.Benchgate.smoke_mismatch then
      Printf.printf
        "warning: baseline %s is a %s run but this is a %s run; timings \
         are not like-for-like\n"
        baseline_path
        (if !smoke then "full" else "smoke")
        (if !smoke then "smoke" else "full");
    let rows =
      List.map
        (fun r ->
          [ r.Benchgate.id;
            (match r.Benchgate.baseline_s with
             | Some b -> fmt_s b
             | None -> "-");
            (match r.Benchgate.current_s with
             | Some c -> fmt_s c
             | None -> "-");
            (match (r.Benchgate.baseline_s, r.Benchgate.current_s) with
             | Some b, Some c ->
               Printf.sprintf "%.2fx" (c /. Float.max b 1e-9)
             | _ -> "-");
            Benchgate.verdict_name r.Benchgate.verdict ])
        result.Benchgate.rows
    in
    Printf.printf "\nregression gate vs %s (threshold %.2fx + %.0fms slack):\n"
      baseline_path threshold (Benchgate.default_slack_s *. 1000.0);
    print_endline
      (Table.render
         ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
         ~header:[ "section"; "baseline"; "current"; "ratio"; "verdict" ]
         rows);
    match result.Benchgate.failed with
    | [] -> Printf.printf "regression gate passed\n"
    | failed ->
      Printf.printf "regression gate FAILED: %s\n" (String.concat ", " failed);
      exit 1

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let sections =
  [ ("E-FIG1", e_fig1); ("E-FIG3", e_fig3); ("E-QUAL", e_qual);
    ("E-TIME", e_time); ("E-VALID", e_valid); ("E-PROV", e_prov);
    ("E-SPEED", e_speed); ("E-EST", e_est); ("E-AUDIT", e_audit);
    ("E-INC", e_inc); ("E-INDEX", e_index); ("E-BB", e_bb);
    ("E-MIXED", e_mixed); ("E-SUGGEST", e_suggest); ("E-SCHED", e_sched);
    ("E-TEMPLATES", e_templates); ("E-FAULT", e_fault);
    ("E-LINT", e_lint); ("E-TRACE", e_trace); ("E-PAR", e_par);
    ("E-STORE", e_store); ("E-ANALYZE", e_analyze); ("E-SERVE", e_serve);
    ("E-OBS", e_obs); ("E-MICRO", e_bechamel) ]

let () =
  let json_out = ref None in
  let compare_to = ref None in
  let threshold = ref 1.5 in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest ->
      smoke := true;
      parse_args acc rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse_args acc rest
    | [ "--json" ] ->
      Printf.eprintf "--json needs a file argument\n";
      exit 2
    | "--compare" :: path :: rest ->
      compare_to := Some path;
      parse_args acc rest
    | [ "--compare" ] ->
      Printf.eprintf "--compare needs a file argument\n";
      exit 2
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
       | Some f when f > 0.0 ->
         threshold := f;
         parse_args acc rest
       | _ ->
         Printf.eprintf "--threshold needs a positive number, got %S\n" v;
         exit 2)
    | [ "--threshold" ] ->
      Printf.eprintf "--threshold needs a number argument\n";
      exit 2
    | "--domains" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 ->
         Par.set_default_domains n;
         parse_args acc rest
       | _ ->
         Printf.eprintf "--domains needs a positive integer, got %S\n" v;
         exit 2)
    | [ "--domains" ] ->
      Printf.eprintf "--domains needs an integer argument\n";
      exit 2
    | id :: rest -> parse_args (id :: acc) rest
  in
  let explicit_ids = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match explicit_ids with
    | [] -> List.map fst sections
    | ids -> ids
  in
  List.iter
    (fun id ->
      if not (List.mem_assoc id sections) then begin
        Printf.eprintf "unknown section %s (known: %s)\n" id
          (String.concat ", " (List.map fst sections));
        exit 2
      end)
    requested;
  let walls =
    List.map
      (fun id ->
        let f = List.assoc id sections in
        (* Each section runs with a clean, enabled registry, so the artifact's
           per-section counters (soundness checks vs pruning probes, cache
           hits, ...) are attributable to that experiment alone. *)
        Metrics.reset ();
        Metrics.set_enabled true;
        let (), wall = Render.time f in
        Metrics.set_enabled false;
        Report.finish_section id ~wall (Metrics.snapshot ());
        (id, wall))
      requested
  in
  Option.iter
    (fun path ->
      Report.write path;
      Printf.printf "\nwrote %s\n" path)
    !json_out;
  Option.iter
    (fun path ->
      (* The missing-section direction only applies when this run was
         supposed to cover everything: an explicit subset (CI's per-section
         gates) legitimately skips the rest. *)
      compare_against ~threshold:!threshold
        ~require_all:(explicit_ids = [])
        path walls)
    !compare_to;
  print_newline ()
