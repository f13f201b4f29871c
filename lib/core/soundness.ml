open Wolves_workflow
module Bitset = Wolves_graph.Bitset
module Digraph = Wolves_graph.Digraph
module Reach = Wolves_graph.Reach
module Obs = Wolves_obs.Metrics
module Par = Wolves_par.Par

(* One branch each while metrics are disabled; [subset_sound] and
   [subset_witnesses] are the hot primitives every layer above funnels
   into. *)
let m_subset_checks = Obs.counter "soundness.subset_checks"
let m_witness_scans = Obs.counter "soundness.witness_scans"
let t_validate = Obs.timer "soundness.validate"

type io = {
  inputs : Spec.task list;
  outputs : Spec.task list;
}

let subset_io spec set =
  let g = Spec.graph spec in
  let inputs = ref [] and outputs = ref [] in
  (* Reverse iteration keeps the result lists in increasing task order. *)
  List.iter
    (fun t ->
      if List.exists (fun p -> not (Bitset.mem set p)) (Digraph.pred g t) then
        inputs := t :: !inputs;
      if List.exists (fun s -> not (Bitset.mem set s)) (Digraph.succ g t) then
        outputs := t :: !outputs)
    (List.rev (Bitset.elements set));
  { inputs = !inputs; outputs = !outputs }

let subset_sound spec set =
  Obs.incr m_subset_checks;
  let r = Spec.reach spec in
  let { inputs; outputs } = subset_io spec set in
  List.for_all
    (fun ti -> List.for_all (fun to_ -> Reach.reaches r ti to_) outputs)
    inputs

let subset_witnesses spec set =
  Obs.incr m_witness_scans;
  let r = Spec.reach spec in
  let { inputs; outputs } = subset_io spec set in
  List.concat_map
    (fun ti ->
      List.filter_map
        (fun to_ -> if Reach.reaches r ti to_ then None else Some (ti, to_))
        outputs)
    inputs

type unsoundness_kind =
  | Parallel_lanes of int
  | Entangled

let pp_unsoundness_kind ppf = function
  | Parallel_lanes k -> Format.fprintf ppf "parallel lanes (%d groups)" k
  | Entangled -> Format.fprintf ppf "entangled (crossing structure)"

let classify_unsound spec set =
  if subset_sound spec set then None
  else begin
    (* Union the members into lanes: two members share a lane when one
       reaches the other (possibly through tasks outside the set). *)
    let members = Array.of_list (Bitset.elements set) in
    let n = Array.length members in
    let r = Spec.reach spec in
    let parent = Array.init n Fun.id in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if
          Reach.reaches r members.(i) members.(j)
          || Reach.reaches r members.(j) members.(i)
        then union i j
      done
    done;
    let roots = Hashtbl.create 8 in
    for i = 0 to n - 1 do
      Hashtbl.replace roots (find i) ()
    done;
    let lanes = Hashtbl.length roots in
    Some (if lanes >= 2 then Parallel_lanes lanes else Entangled)
  end

let minimal_unsound_core spec set =
  if subset_sound spec set then None
  else begin
    (* Drop members while the remainder stays unsound, repeating until a
       full pass removes nothing (soundness is not monotone under subsets,
       so one pass does not suffice for minimality). *)
    let core = Bitset.copy set in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun t ->
          Bitset.remove core t;
          if subset_sound spec core then Bitset.add core t else changed := true)
        (Bitset.elements core)
    done;
    Some core
  end

let member_set view c =
  let set = Bitset.create (Spec.n_tasks (View.spec view)) in
  List.iter (Bitset.add set) (View.members view c);
  set

let composite_io view c = subset_io (View.spec view) (member_set view c)

let composite_sound view c = subset_sound (View.spec view) (member_set view c)

let composite_witnesses view c =
  subset_witnesses (View.spec view) (member_set view c)

type report = {
  view : View.t;
  unsound : (View.composite * (Spec.task * Spec.task) list) list;
}

let validate ?domains view =
  let domains =
    match domains with Some d -> d | None -> Par.default_domains ()
  in
  Obs.time t_validate
    ~args:(fun () ->
      [ ("workflow", Spec.name (View.spec view));
        ("composites", string_of_int (View.n_composites view)) ])
  @@ fun () ->
  let composites = Array.of_list (View.composites view) in
  let unsound =
    if domains <= 1 || Array.length composites < 2 then
      List.filter_map
        (fun c ->
          match composite_witnesses view c with
          | [] -> None
          | witnesses -> Some (c, witnesses))
        (View.composites view)
    else begin
      (* Composites are independent: each check only reads the spec and its
         reachability index, and records into the atomic metrics registry.
         Force the spec's lazy closure before farming so workers never race
         on its initialisation. [map_ordered] keeps the report in composite
         order. *)
      ignore (Spec.reach (View.spec view));
      let results =
        Par.map_ordered ~domains (composite_witnesses view) composites
      in
      List.filter_map
        (fun i ->
          match results.(i) with
          | [] -> None
          | witnesses -> Some (composites.(i), witnesses))
        (List.init (Array.length composites) Fun.id)
    end
  in
  { view; unsound }

let is_sound view = (validate view).unsound = []

let pp_report ppf { view; unsound } =
  let spec = View.spec view in
  match unsound with
  | [] ->
    Format.fprintf ppf "view of %S is sound (%d composites checked)"
      (Spec.name spec)
      (View.n_composites view)
  | _ ->
    Format.fprintf ppf "view of %S is UNSOUND: %d of %d composites unsound"
      (Spec.name spec) (List.length unsound) (View.n_composites view);
    List.iter
      (fun (c, witnesses) ->
        Format.fprintf ppf "@\n  composite %S:" (View.composite_name view c);
        List.iter
          (fun (ti, to_) ->
            Format.fprintf ppf "@\n    no path %S -> %S" (Spec.task_name spec ti)
              (Spec.task_name spec to_))
          witnesses)
      unsound

let preserves_paths view =
  let spec = View.spec view in
  let r = Spec.reach spec in
  let vr = View.view_reach view in
  let witness c1 c2 =
    List.exists
      (fun t1 -> List.exists (fun t2 -> Reach.reaches r t1 t2) (View.members view c2))
      (View.members view c1)
  in
  List.for_all
    (fun c1 ->
      List.for_all
        (fun c2 ->
          c1 = c2 || Reach.reaches vr c1 c2 = witness c1 c2)
        (View.composites view))
    (View.composites view)

exception Out_of_fuel

(* Simple-path existence by exhaustive DFS, deliberately without memoisation:
   this is the "directly applied" Definition 2.1 check whose exponential cost
   the paper contrasts with the Proposition 2.1 validator. *)
let naive_path_exists g fuel u v =
  let n = Digraph.n_nodes g in
  let on_path = Array.make n false in
  let rec dfs x =
    decr fuel;
    if !fuel <= 0 then raise Out_of_fuel;
    x = v
    || begin
         on_path.(x) <- true;
         let found =
           List.exists (fun y -> (not on_path.(y)) && dfs y) (Digraph.succ g x)
         in
         on_path.(x) <- false;
         found
       end
  in
  dfs u

let naive_preserves_paths ?(fuel = 50_000_000) view =
  let spec = View.spec view in
  let wg = Spec.graph spec in
  let vg = View.view_graph view in
  let remaining = ref fuel in
  let witness c1 c2 =
    List.exists
      (fun t1 ->
        List.exists
          (fun t2 -> t1 = t2 || naive_path_exists wg remaining t1 t2)
          (View.members view c2))
      (View.members view c1)
  in
  try
    Some
      (List.for_all
         (fun c1 ->
           List.for_all
             (fun c2 ->
               c1 = c2
               || naive_path_exists vg remaining c1 c2 = witness c1 c2)
             (View.composites view))
         (View.composites view))
  with Out_of_fuel -> None
