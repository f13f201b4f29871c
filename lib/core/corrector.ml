open Wolves_workflow
module Bitset = Wolves_graph.Bitset
module Digraph = Wolves_graph.Digraph
module Reach = Wolves_graph.Reach
module Obs = Wolves_obs.Metrics
module Clock = Wolves_obs.Clock
module Par = Wolves_par.Par
module Frame = Soundness.Frame

(* Registry counters (recorded only while metrics are enabled). The local
   [ctx] counters below always run: they feed the per-outcome numbers. *)
let m_checks = Obs.counter "corrector.checks"
let m_prune_probes = Obs.counter "corrector.prune_probes"
let m_dp_mask_evals = Obs.counter "corrector.dp_mask_evals"
let m_weak_merges = Obs.counter "corrector.weak.merges"
let m_closure_branches = Obs.counter "corrector.closure.branches"
let m_budget_exhausted = Obs.counter "corrector.closure.budget_exhausted"
let m_certified = Obs.counter "corrector.certified"
let m_uncertified = Obs.counter "corrector.uncertified"
let m_anytime_nodes = Obs.counter "corrector.anytime.nodes"
let m_anytime_proven = Obs.counter "corrector.anytime.proven"
let m_anytime_cut = Obs.counter "corrector.anytime.budget_cut"
let m_deadline_weak = Obs.counter "corrector.deadline.answered_weak"
let m_deadline_strong = Obs.counter "corrector.deadline.answered_strong"
let m_deadline_optimal = Obs.counter "corrector.deadline.answered_optimal"
let t_split = Obs.timer "corrector.split"
let t_deadline = Obs.timer "corrector.with_deadline"

type criterion =
  | Weak
  | Strong
  | Optimal

let pp_criterion ppf = function
  | Weak -> Format.pp_print_string ppf "weak"
  | Strong -> Format.pp_print_string ppf "strong"
  | Optimal -> Format.pp_print_string ppf "optimal"

let criterion_of_string = function
  | "weak" -> Some Weak
  | "strong" -> Some Strong
  | "optimal" -> Some Optimal
  | _ -> None

type outcome = {
  parts : Spec.task list list;
  checks : int;
  probes : int;
  certified_strong : bool;
}

type config = {
  branch_budget : int;
  optimal_max_tasks : int;
}

let default_config = { branch_budget = 64; optimal_max_tasks = 18 }

(* The optimal DP counts 2^optimal_max_tasks masks, so [1 lsl limit] must
   stay a non-negative int: at 63 bits, [1 lsl 63 = 0] and [1 lsl 64 = 1],
   so an unchecked loop would enumerate nothing. *)
let check_config config =
  let limit = config.optimal_max_tasks in
  if limit > Frame.max_parts then
    invalid_arg
      (Printf.sprintf
         "Corrector: optimal_max_tasks = %d exceeds %d (its 2^%d masks must \
          fit a non-negative int)"
         limit Frame.max_parts limit)

(* Shared mutable state of one correction run: the specification and two
   counters. [checks] counts subset-soundness evaluations (Def 2.3), once
   each, whether on the split's member frame or on a frame of their own
   ([Soundness.subset_sound]) — the unit the paper's complexity claims are
   phrased in. [probes] counts the cheaper auxiliary evaluations (the
   anytime search's partial pruning probes, the optimal DP's bit-parallel
   mask evaluations) that must NOT inflate the paper-comparable metric. *)
type ctx = {
  spec : Spec.t;
  n : int;
  checks : int ref;
  probes : int ref;
  stop : unit -> bool;
      (** deadline hook polled before every soundness check; checks raise
          {!Expired} once it returns true *)
}

exception Expired

let no_stop () = false

let make_ctx spec =
  { spec; n = Spec.n_tasks spec; checks = ref 0; probes = ref 0;
    stop = no_stop }

let count_check ctx =
  if ctx.stop () then raise Expired;
  incr ctx.checks;
  Obs.incr m_checks

let sound ctx set =
  count_check ctx;
  Soundness.subset_sound ctx.spec set

let frame_sound ctx fr u =
  count_check ctx;
  Frame.sound fr u

let frame_witness ctx fr u =
  count_check ctx;
  Frame.first_witness fr u

(* ------------------------------------------------------------------ *)
(* Weak local optimality: greedy pair merging from singletons.         *)
(* ------------------------------------------------------------------ *)

(* Parts are frame sets ordered by smallest member; merging part j into
   part i < j preserves that order, so the algorithm is deterministic. Each
   candidate union is built in the one scratch set [u], which is kept only
   when the merge happens. *)
let weak_split ctx fr =
  let parts = ref (Array.init (Frame.size fr) (Frame.singleton fr)) in
  let remove_at j =
    let old = !parts in
    parts :=
      Array.init
        (Array.length old - 1)
        (fun k -> if k < j then old.(k) else old.(k + 1))
  in
  let u = ref (Frame.empty fr) in
  let changed = ref true in
  while !changed do
    changed := false;
    let i = ref 0 in
    while !i < Array.length !parts do
      let j = ref (!i + 1) in
      while !j < Array.length !parts do
        Array.blit (!parts).(!i) 0 !u 0 fr.Frame.words;
        Frame.union_into ~into:!u (!parts).(!j);
        if frame_sound ctx fr !u then begin
          Obs.incr m_weak_merges;
          (!parts).(!i) <- !u;
          u := Frame.empty fr;
          remove_at !j;
          changed := true
        end
        else incr j
      done;
      incr i
    done
  done;
  !parts

(* ------------------------------------------------------------------ *)
(* Strong local optimality: seeded closure search for combinable        *)
(* subsets of parts, run on top of the weak result.                     *)
(* ------------------------------------------------------------------ *)

(* Try to grow the union of the seed parts into a sound union of parts.
   A "bad pair" (x, y) — x ∈ in(U), y ∈ out(U), ¬reach(x, y) — can only be
   repaired by absorbing the parts that make x an input (every outside
   predecessor of x, only possible when they all lie inside the composite) or
   dually the parts consuming y. Forced repairs are applied directly;
   two-sided choices branch within [budget]. While the budget lasts the
   search is complete: it finds a sound union containing the seed pair
   whenever one exists (DESIGN.md). A two-sided choice met with no budget
   left follows the input side only and sets [exhausted], since the search
   may then miss a union. *)
let try_closure ctx fr ~budget ~exhausted parts part_of seed_i seed_j =
  let p = Array.length parts in
  let union_of included =
    let u = Frame.empty fr in
    for k = 0 to p - 1 do
      if included.(k) then Frame.union_into ~into:u parts.(k)
    done;
    u
  in
  (* Parts (indices, possibly repeated) that must be absorbed so that [x]
     stops being an input of [u] — the parts of its predecessors outside
     [u]; None when impossible (a task outside the composite feeds x). *)
  let absorb = Option.map (List.map (fun i -> part_of.(i))) in
  let budget = ref budget in
  let rec solve included u =
    match frame_witness ctx fr u with
    | None -> Some included
    | Some (x, y) ->
      let fix_in = absorb (Frame.preds_outside fr x u) in
      let fix_out = absorb (Frame.succs_outside fr y u) in
      let apply ks =
        let included' = Array.copy included in
        List.iter (fun k -> included'.(k) <- true) ks;
        solve included' (union_of included')
      in
      (match (fix_in, fix_out) with
       | None, None -> None
       | Some ks, None | None, Some ks -> apply ks
       | Some ks_in, Some ks_out ->
         if !budget > 0 then begin
           decr budget;
           Obs.incr m_closure_branches;
           match apply ks_in with
           | Some _ as found -> found
           | None -> apply ks_out
         end
         else begin
           Obs.incr m_budget_exhausted;
           exhausted := true;
           apply ks_in
         end)
  in
  let included = Array.make p false in
  included.(seed_i) <- true;
  included.(seed_j) <- true;
  solve included (union_of included)

let find_combinable_parts ctx fr ~budget ~exhausted parts =
  let p = Array.length parts in
  let part_of = Array.make (Frame.size fr) 0 in
  Array.iteri (fun k set -> Frame.iter (fun i -> part_of.(i) <- k) set) parts;
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < p do
    let j = ref (!i + 1) in
    while !found = None && !j < p do
      (match try_closure ctx fr ~budget ~exhausted parts part_of !i !j with
       | Some included ->
         found :=
           Some
             (List.filter (fun k -> included.(k)) (List.init p Fun.id))
       | None -> ());
      incr j
    done;
    incr i
  done;
  !found

let merge_parts fr parts indices =
  let keep = Array.to_list parts in
  let merged = Frame.empty fr in
  List.iter (fun k -> Frame.union_into ~into:merged parts.(k)) indices;
  let rest =
    List.filteri (fun k _ -> not (List.mem k indices)) keep
  in
  (* Reinsert ordered by smallest member. *)
  let all = merged :: rest in
  Array.of_list
    (List.sort (fun a b -> compare (Frame.lowest a) (Frame.lowest b)) all)

(* The strong loop starting from an arbitrary partition (normally the weak
   corrector's); factored out so the deadline chain can hand it the weak
   result it already holds and abandon it mid-flight via [ctx.stop]. Every
   combinable subset of parts contains a pair, and every pair seeds a
   closure search, so a round that finds no merge without exhausting any
   seed's budget proves the split strongly local optimal (Def 2.6): that
   round is the certificate. Each round owns its flag; a round that finds a
   merge ignores it. *)
let strong_refine ctx fr ~config parts0 =
  let rec round parts =
    let exhausted = ref false in
    match
      find_combinable_parts ctx fr ~budget:config.branch_budget ~exhausted
        parts
    with
    | Some indices -> round (merge_parts fr parts indices)
    | None -> (parts, not !exhausted)
  in
  let parts, certified = round parts0 in
  Obs.incr (if certified then m_certified else m_uncertified);
  (parts, certified)

let strong_split ctx fr ~config =
  strong_refine ctx fr ~config (weak_split ctx fr)

(* ------------------------------------------------------------------ *)
(* Optimal split: exact minimum partition into sound parts, by dynamic  *)
(* programming over subsets of the composite's members.                 *)
(* ------------------------------------------------------------------ *)

(* [check_config] keeps [n] within [Frame.max_parts], so the frame has one
   word per row: member [i]'s reach, predecessor and successor rows are the
   words at index [i], and [1 lsl n] counts the masks. *)
let optimal_split ctx fr =
  let n = Frame.size fr in
  let ext_in = fr.Frame.ext_in.(0) and ext_out = fr.Frame.ext_out.(0) in
  let size = 1 lsl n in
  let sound_mask = Bytes.make size '\000' in
  (* Bit-parallel subset-soundness evaluation of every mask. These are NOT
     [Soundness.subset_sound] calls — they count as probes, not checks, so
     the paper-comparable metric stays honest. *)
  for mask = 1 to size - 1 do
    incr ctx.probes;
    Obs.incr m_dp_mask_evals;
    let ins = ref 0 and outs = ref 0 in
    for i = 0 to n - 1 do
      let bit = 1 lsl i in
      if mask land bit <> 0 then begin
        if ext_in land bit <> 0 || fr.Frame.pred.(i) land lnot mask <> 0 then
          ins := !ins lor bit;
        if ext_out land bit <> 0 || fr.Frame.succ.(i) land lnot mask <> 0 then
          outs := !outs lor bit
      end
    done;
    let ok = ref true in
    for i = 0 to n - 1 do
      if !ins land (1 lsl i) <> 0 && !outs land lnot fr.Frame.reach.(i) <> 0
      then ok := false
    done;
    if !ok then Bytes.set sound_mask mask '\001'
  done;
  let infinity_parts = n + 1 in
  let dp = Array.make size infinity_parts in
  let choice = Array.make size 0 in
  dp.(0) <- 0;
  for mask = 1 to size - 1 do
    (* The part containing the lowest member of [mask] must be a sound
       submask; enumerate them. *)
    let low = mask land -mask in
    let s = ref mask in
    while !s > 0 do
      if !s land low <> 0 && Bytes.get sound_mask !s = '\001' then begin
        let rest = mask lxor !s in
        if dp.(rest) + 1 < dp.(mask) then begin
          dp.(mask) <- dp.(rest) + 1;
          choice.(mask) <- !s
        end
      end;
      s := (!s - 1) land mask
    done
  done;
  let full = size - 1 in
  assert (dp.(full) <= n);
  let rec rebuild mask acc =
    if mask = 0 then acc
    else
      let s = choice.(mask) in
      let part =
        List.filter_map
          (fun i ->
            if s land (1 lsl i) <> 0 then Some fr.Frame.tasks.(i) else None)
          (List.init n Fun.id)
      in
      rebuild (mask lxor s) (part :: acc)
  in
  let parts = rebuild full [] in
  List.sort (fun a b -> compare (List.hd a) (List.hd b)) parts

(* ------------------------------------------------------------------ *)
(* Public API                                                           *)
(* ------------------------------------------------------------------ *)

let check_members spec members =
  if members = [] then invalid_arg "Corrector: empty composite";
  let sorted = List.sort_uniq compare members in
  if List.length sorted <> List.length members then
    invalid_arg "Corrector: duplicate members";
  List.iter
    (fun t ->
      if t < 0 || t >= Spec.n_tasks spec then
        invalid_arg (Printf.sprintf "Corrector: unknown task %d" t))
    sorted;
  sorted

let parts_to_lists fr parts = Array.to_list (Array.map (Frame.tasks fr) parts)

(* The member frame of a composite to split, or None when the members are
   already sound: a singleton needs no check, anything else one, on the
   frame every later check of the split reuses. *)
let frame_if_unsound ctx members =
  if List.length members = 1 then None
  else
    let fr = Frame.make ctx.spec members in
    if frame_sound ctx fr (Frame.full fr) then None else Some fr

let outcome_of_ctx ctx ~parts ~certified_strong =
  { parts; checks = !(ctx.checks); probes = !(ctx.probes); certified_strong }

let criterion_name = function
  | Weak -> "weak"
  | Strong -> "strong"
  | Optimal -> "optimal"

let split_subset ?(config = default_config) criterion spec members =
  check_config config;
  Obs.time t_split
    ~args:(fun () ->
      [ ("criterion", criterion_name criterion);
        ("members", string_of_int (List.length members)) ])
  @@ fun () ->
  let members = check_members spec members in
  let ctx = make_ctx spec in
  match frame_if_unsound ctx members with
  | None ->
    (* Already sound: nothing to split; trivially strongly optimal. *)
    outcome_of_ctx ctx ~parts:[ members ] ~certified_strong:true
  | Some fr ->
    match criterion with
    | Weak ->
      let parts = weak_split ctx fr in
      outcome_of_ctx ctx ~parts:(parts_to_lists fr parts)
        ~certified_strong:false
    | Strong ->
      let parts, certified = strong_split ctx fr ~config in
      outcome_of_ctx ctx ~parts:(parts_to_lists fr parts)
        ~certified_strong:certified
    | Optimal ->
      if List.length members > config.optimal_max_tasks then
        invalid_arg
          (Printf.sprintf
             "Corrector: optimal split limited to %d tasks (got %d)"
             config.optimal_max_tasks (List.length members));
      let parts = optimal_split ctx fr in
      (* A minimum split is strongly local optimal: a combinable subset
         would contradict minimality. *)
      outcome_of_ctx ctx ~parts ~certified_strong:true

(* ------------------------------------------------------------------ *)
(* Anytime exact split: branch-and-bound over topological assignments.  *)
(* ------------------------------------------------------------------ *)

(* The branch-and-bound core: improve on [incumbent] within [node_budget]
   nodes, additionally cut by the external [stop] hook (polled per node, so
   a raised deadline never escapes as an exception — the incumbent is always
   returned). [incumbent] and the result are partitions as lists of
   increasing tasks, the result sorted by smallest member; the bool says
   whether the search ran to completion (proving minimality). *)
let bb_search ctx ~node_budget ~stop members incumbent =
  let spec = ctx.spec in
  let member_set = Bitset.of_list ctx.n members in
  begin
    let best = ref incumbent in
    let best_count = ref (List.length incumbent) in
    let g = Spec.graph spec in
    let r = Spec.reach spec in
    (* Assignment order: members sorted topologically, so that when a task
       is placed every in-T supplier is already placed. *)
    let topo_pos = Array.make ctx.n 0 in
    List.iteri (fun i t -> topo_pos.(t) <- i) (Spec.topological_order spec);
    let order =
      Array.of_list
        (List.sort (fun a b -> compare topo_pos.(a) topo_pos.(b)) members)
    in
    let n = Array.length order in
    let assigned = Bitset.create ctx.n in
    (* A part is hopeless once some placed input x cannot reach some final
       output y: x's in-status is final (suppliers all placed), y's
       out-status is final when y exports outside T or to a placed task of
       another part. *)
    let out_final part y =
      List.exists
        (fun c ->
          if Bitset.mem part c then false
          else if not (Bitset.mem member_set c) then true
          else Bitset.mem assigned c)
        (Digraph.succ g y)
    in
    let in_now part x =
      List.exists (fun p -> not (Bitset.mem part p)) (Digraph.pred g x)
    in
    (* A pruning probe, not a subset-soundness evaluation: it inspects only
       the pairs whose in/out status is already final, so it can prove a
       part hopeless but never sound. Counting it under [checks] inflated
       the paper-comparable metric by orders of magnitude. *)
    let part_hopeless part =
      incr ctx.probes;
      Obs.incr m_prune_probes;
      let bad = ref false in
      Bitset.iter
        (fun y ->
          if (not !bad) && out_final part y then
            Bitset.iter
              (fun x ->
                if (not !bad) && in_now part x && not (Reach.reaches r x y)
                then bad := true)
              part)
        part;
      !bad
    in
    let parts : Bitset.t array = Array.init n (fun _ -> Bitset.create ctx.n) in
    let nodes = ref 0 in
    let complete = ref true in
    let rec search i used =
      if !nodes >= node_budget || stop () then complete := false
      else begin
        incr nodes;
        if used >= !best_count then () (* cannot improve *)
        else if i = n then begin
          (* All placed: re-validate every part (a pair can become "final"
             through assignments to other parts after the last time this
             part was checked). *)
          let all_sound =
            Array.for_all
              (fun part -> sound ctx part)
              (Array.sub parts 0 used)
          in
          if all_sound then begin
            best :=
              Array.to_list (Array.map Bitset.elements (Array.sub parts 0 used));
            best_count := used
          end
        end
        else begin
          let t = order.(i) in
          Bitset.add assigned t;
          (* Try existing parts, then a fresh one (canonical order kills the
             part-permutation symmetry). *)
          let try_part p =
            Bitset.add parts.(p) t;
            if not (part_hopeless parts.(p)) then
              search (i + 1) (max used (p + 1));
            Bitset.remove parts.(p) t
          in
          for p = 0 to used - 1 do
            try_part p
          done;
          if used < n then try_part used;
          Bitset.remove assigned t
        end
      end
    in
    search 0 0;
    Obs.add m_anytime_nodes !nodes;
    Obs.incr (if !complete then m_anytime_proven else m_anytime_cut);
    let parts_lists =
      List.sort (fun a b -> compare (List.hd a) (List.hd b)) !best
    in
    (parts_lists, !complete)
  end

let split_subset_anytime ?(config = default_config) ?(node_budget = 2_000_000)
    spec members =
  check_config config;
  let members = check_members spec members in
  let ctx = make_ctx spec in
  match frame_if_unsound ctx members with
  | None -> (outcome_of_ctx ctx ~parts:[ members ] ~certified_strong:true, true)
  | Some fr ->
    (* Incumbent: the strong corrector's split. *)
    let incumbent, _ = strong_split ctx fr ~config in
    let parts_lists, complete =
      bb_search ctx ~node_budget ~stop:no_stop members
        (parts_to_lists fr incumbent)
    in
    (* A proven minimum is strongly local optimal (a combinable subset would
       contradict minimality); a budget-cut result is not certified. *)
    (outcome_of_ctx ctx ~parts:parts_lists ~certified_strong:complete, complete)

(* ------------------------------------------------------------------ *)
(* Deadline-degrading correction: optimal when time allows, falling     *)
(* back to strong, then weak, as the budget expires.                    *)
(* ------------------------------------------------------------------ *)

type tier_outcome = {
  result : outcome;
  tier : criterion;
      (** the guarantee level of the returned partition: the tier whose
          search last {e completed} *)
  elapsed_s : float;
  abandoned : criterion option;
      (** the tier whose search the deadline interrupted, if any *)
  proven_optimal : bool;
}

let pp_tier_outcome ppf o =
  Format.fprintf ppf "%a tier, %d parts, %.3f ms%s" pp_criterion o.tier
    (List.length o.result.parts)
    (o.elapsed_s *. 1000.0)
    (match o.abandoned with
     | None -> ""
     | Some c -> Format.asprintf " (abandoned %a)" pp_criterion c)

let default_check_cost_s = 1e-4

let with_deadline ?(config = default_config) ?(node_budget = 2_000_000)
    ?(check_cost_s = default_check_cost_s) ?(spent_s = 0.) ~deadline_s spec
    members =
  if spent_s < 0.0 then
    invalid_arg "Corrector.with_deadline: spent_s must be non-negative";
  check_config config;
  Obs.time t_deadline
    ~args:(fun () ->
      [ ("deadline_s", Printf.sprintf "%g" deadline_s);
        ("spent_s", Printf.sprintf "%g" spent_s);
        ("members", string_of_int (List.length members)) ])
  @@ fun () ->
  let start = Clock.now () in
  let members = check_members spec members in
  let ctx = make_ctx spec in
  (* Budget consumption is the max of real elapsed time and the modeled cost
     of the soundness checks performed so far. The modeled component makes
     degradation deterministic across machines (the gadgets of this repo are
     so small that every tier finishes in microseconds, which would make
     deadline behaviour a lottery of hardware speed); the wall-clock
     component keeps the deadline honest on instances large enough for real
     time to dominate. [spent_s] pre-charges the budget with time the caller
     already consumed on the request's behalf before correction started —
     the query service passes its admission-queue wait here, so a request
     that waited degrades further instead of overstaying its deadline. *)
  let consumed () =
    spent_s
    +. Float.max (Clock.elapsed_since start)
         (float_of_int !(ctx.checks) *. check_cost_s)
  in
  let expired () = consumed () >= deadline_s in
  let finish tier ~parts ~certified ~abandoned ~proven =
    Obs.incr
      (match tier with
       | Weak -> m_deadline_weak
       | Strong -> m_deadline_strong
       | Optimal -> m_deadline_optimal);
    Obs.instant "corrector.deadline.answered" (fun () ->
        [ ("tier", criterion_name tier);
          ("parts", string_of_int (List.length parts));
          ("proven_optimal", string_of_bool proven) ]);
    { result = outcome_of_ctx ctx ~parts ~certified_strong:certified;
      tier;
      elapsed_s = Clock.elapsed_since start;
      abandoned;
      proven_optimal = proven }
  in
  match frame_if_unsound ctx members with
  | None ->
    (* Already sound: the trivial split is minimal, whatever the budget. *)
    finish Optimal ~parts:[ members ] ~certified:true ~abandoned:None
      ~proven:true
  | Some fr ->
    (* Tier 1 — weak floor. Runs to completion regardless of the deadline:
       there is no cheaper sound answer to degrade to, and it is the
       incumbent everything later improves on. *)
    let weak_parts =
      Obs.with_span "corrector.tier.weak" (fun () -> weak_split ctx fr)
    in
    let weak_fallback () =
      finish Weak
        ~parts:(parts_to_lists fr weak_parts)
        ~certified:false ~abandoned:(Some Strong) ~proven:false
    in
    if expired () then weak_fallback ()
    else begin
      (* Tier 2 — strong refinement of the weak result, interruptible
         between soundness checks. The stop-threaded context shares the
         counter refs, so abandoned work still shows up in the outcome. *)
      match
        Obs.with_span "corrector.tier.strong" (fun () ->
            strong_refine { ctx with stop = expired } fr ~config weak_parts)
      with
      | exception Expired -> weak_fallback ()
      | strong_parts, certified ->
        let strong_parts = parts_to_lists fr strong_parts in
        if expired () then
          finish Strong ~parts:strong_parts
            ~certified ~abandoned:(Some Optimal) ~proven:false
        else begin
          (* Tier 3 — exact branch-and-bound, cut per node by the deadline.
             Run with the non-raising context: a cut search still returns
             its incumbent (≥ the strong result), it just is not proven
             minimal. *)
          let bb_parts, complete =
            Obs.with_span "corrector.tier.optimal" (fun () ->
                bb_search ctx ~node_budget ~stop:expired members strong_parts)
          in
          if complete then
            finish Optimal ~parts:bb_parts ~certified:true ~abandoned:None
              ~proven:true
          else
            finish Strong ~parts:bb_parts ~certified
              ~abandoned:(Some Optimal) ~proven:false
        end
    end

let unique_name taken base =
  if not (Hashtbl.mem taken base) then base
  else begin
    let rec go k =
      let candidate = Printf.sprintf "%s~%d" base k in
      if Hashtbl.mem taken candidate then go (k + 1) else candidate
    in
    go 2
  end

let rebuild_view view replacements =
  (* [replacements]: composite id -> parts. Composites absent from the map
     are kept as-is. *)
  let spec = View.spec view in
  let taken = Hashtbl.create 64 in
  let groups =
    List.concat_map
      (fun c ->
        let name = View.composite_name view c in
        match List.assoc_opt c replacements with
        | None ->
          let final = unique_name taken name in
          Hashtbl.replace taken final ();
          [ (final, View.members view c) ]
        | Some [ single ] ->
          let final = unique_name taken name in
          Hashtbl.replace taken final ();
          [ (final, single) ]
        | Some parts ->
          List.mapi
            (fun i part ->
              let final = unique_name taken (Printf.sprintf "%s/%d" name i) in
              Hashtbl.replace taken final ();
              (final, part))
            parts)
      (View.composites view)
  in
  let names = Array.of_list (List.map fst groups) in
  match View.of_partition ~names spec (List.map snd groups) with
  | Ok v -> v
  | Error e ->
    invalid_arg
      (Format.asprintf "Corrector.rebuild_view: %a" View.pp_error e)

let split_composite ?(config = default_config) criterion view c =
  let spec = View.spec view in
  let outcome = split_subset ~config criterion spec (View.members view c) in
  (rebuild_view view [ (c, outcome.parts) ], outcome)

let correct ?(config = default_config) ?domains criterion view =
  check_config config;
  Obs.with_span "corrector.correct"
    ~args:(fun () ->
      [ ("workflow", Spec.name (View.spec view));
        ("criterion", criterion_name criterion) ])
  @@ fun () ->
  let spec = View.spec view in
  let report = Soundness.validate ?domains view in
  let split c =
    Obs.with_span "corrector.composite"
      ~args:(fun () -> [ ("composite", View.composite_name view c) ])
    @@ fun () ->
    split_subset ~config criterion spec (View.members view c)
  in
  (* Each unsound composite is corrected independently from the spec and
     its closure (forced by [validate], read-only), so the splits farm
     across the pool, recording straight into the atomic registry. The view
     is only rebuilt afterwards, on this domain. *)
  let unsound = Array.of_list (List.map fst report.Soundness.unsound) in
  let outcomes =
    Array.to_list (Array.combine unsound (Par.map_ordered ?domains split unsound))
  in
  let replacements = List.map (fun (c, o) -> (c, o.parts)) outcomes in
  (rebuild_view view replacements, outcomes)

let correct_with_deadline ?(config = default_config) ?(node_budget = 2_000_000)
    ?(check_cost_s = default_check_cost_s) ?(spent_s = 0.) ~deadline_s view =
  if spent_s < 0.0 then
    invalid_arg "Corrector.correct_with_deadline: spent_s must be non-negative";
  check_config config;
  Obs.with_span "corrector.correct"
    ~args:(fun () ->
      [ ("workflow", Spec.name (View.spec view));
        ("deadline_s", Printf.sprintf "%g" deadline_s);
        ("spent_s", Printf.sprintf "%g" spent_s) ])
  @@ fun () ->
  let spec = View.spec view in
  let report = Soundness.validate view in
  (* One budget shared across all unsound composites: each gets whatever
     remains when its turn comes (clamped at zero — the weak floor still
     guarantees a sound answer for every composite). Consumption is each
     composite's, under the same wall-vs-modeled accounting as
     {!with_deadline}; [spent_s] is charged up front. *)
  let remaining = ref (deadline_s -. spent_s) in
  let outcomes =
    List.map
      (fun (c, _) ->
        let o =
          Obs.with_span "corrector.composite"
            ~args:(fun () -> [ ("composite", View.composite_name view c) ])
          @@ fun () ->
          with_deadline ~config ~node_budget ~check_cost_s
            ~deadline_s:(Float.max 0.0 !remaining)
            spec (View.members view c)
        in
        remaining :=
          !remaining
          -. Float.max o.elapsed_s
               (float_of_int o.result.checks *. check_cost_s);
        (c, o))
      report.Soundness.unsound
  in
  let replacements =
    List.map (fun (c, o) -> (c, o.result.parts)) outcomes
  in
  (rebuild_view view replacements, outcomes)

let combinable spec a b =
  let a = check_members spec a and b = check_members spec b in
  let set = Bitset.of_list (Spec.n_tasks spec) a in
  List.iter
    (fun t ->
      if Bitset.mem set t then invalid_arg "Corrector.combinable: overlapping sets";
      Bitset.add set t)
    b;
  Soundness.subset_sound spec set

(* ------------------------------------------------------------------ *)
(* Merge-based resolution (extension)                                   *)
(* ------------------------------------------------------------------ *)

let merge_resolve view c =
  let spec = View.spec view in
  let n = Spec.n_tasks spec in
  let g = Spec.graph spec in
  let u = Bitset.of_list n (View.members view c) in
  let absorbed = Array.make (View.n_composites view) false in
  absorbed.(c) <- true;
  let absorb_side neighbours x =
    (* Composites owning the outside neighbours of x, with the task count
       they would add. *)
    let comps =
      List.sort_uniq compare
        (List.filter_map
           (fun t ->
             if Bitset.mem u t then None else Some (View.composite_of_task view t))
           (neighbours g x))
    in
    let cost =
      List.fold_left
        (fun acc comp -> acc + List.length (View.members view comp))
        0 comps
    in
    (comps, cost)
  in
  let continue_ = ref true in
  while !continue_ do
    match Soundness.subset_witnesses spec u with
    | [] -> continue_ := false
    | (x, y) :: _ ->
      let in_side = absorb_side Digraph.pred x in
      let out_side = absorb_side Digraph.succ y in
      let comps, _ =
        match (in_side, out_side) with
        | (([], _) as a), _ -> ignore a; out_side
        | _, ([], _) -> in_side
        | (_, cin), (_, cout) -> if cout < cin then out_side else in_side
      in
      List.iter
        (fun comp ->
          absorbed.(comp) <- true;
          List.iter (Bitset.add u) (View.members view comp))
        comps
  done;
  let name = View.composite_name view c in
  let groups =
    List.filter_map
      (fun c' ->
        if absorbed.(c') then None
        else Some (View.composite_name view c', View.members view c'))
      (View.composites view)
    @ [ (name, Bitset.elements u) ]
  in
  let names = Array.of_list (List.map fst groups) in
  let view' =
    match View.of_partition ~names spec (List.map snd groups) with
    | Ok v -> v
    | Error e ->
      invalid_arg (Format.asprintf "Corrector.merge_resolve: %a" View.pp_error e)
  in
  match View.composite_of_name view' name with
  | Some c' -> (view', c')
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Mixed split/merge resolution                                         *)
(* ------------------------------------------------------------------ *)

type decision = {
  composite : string;
  action : [ `Split of int | `Merge of int ];
}

let pp_decision ppf d =
  match d.action with
  | `Split parts ->
    Format.fprintf ppf "split %S into %d parts" d.composite parts
  | `Merge absorbed ->
    Format.fprintf ppf "merged %d composites into %S" absorbed d.composite

let resolve_auto ?(config = default_config) view =
  check_config config;
  let rec go view decisions =
    match (Soundness.validate view).Soundness.unsound with
    | [] -> (view, List.rev decisions)
    | (c, _) :: _ ->
      let name = View.composite_name view c in
      let split_view, outcome = split_composite ~config Strong view c in
      let split_cost = List.length outcome.parts - 1 in
      let merge_view, merged = merge_resolve view c in
      let merge_cost =
        List.length (View.members merge_view merged)
        - List.length (View.members view c)
      in
      if split_cost <= merge_cost then
        go split_view
          ({ composite = name; action = `Split (List.length outcome.parts) }
           :: decisions)
      else
        let absorbed =
          View.n_composites view - View.n_composites merge_view
        in
        go merge_view
          ({ composite = name; action = `Merge absorbed } :: decisions)
  in
  go view []
