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

module Frame = struct
  let bits = Bitset.bits_per_word

  type t = {
    tasks : Spec.task array;
    words : int;
    reach : int array;
    pred : int array;
    succ : int array;
    ext_in : int array;
    ext_out : int array;
    ins : int array;
    outs : int array;
  }

  type set = int array

  let max_parts = Sys.int_size - 2

  let set_bit row off i =
    let w = off + (i / bits) in
    row.(w) <- row.(w) lor (1 lsl (i mod bits))

  (* Position of task [t] in the increasing [tasks], or -1. *)
  let index tasks t =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let x = tasks.(mid) in
        if x = t then mid else if x < t then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length tasks)

  let make spec members =
    let tasks = Array.of_list members in
    let n = Spec.n_tasks spec in
    Array.iteri
      (fun i t ->
        if t < 0 || t >= n || (i > 0 && tasks.(i - 1) >= t) then
          invalid_arg
            "Soundness.Frame.make: members must be increasing tasks of the spec")
      tasks;
    let m = Array.length tasks in
    let words = (m + bits - 1) / bits in
    let g = Spec.graph spec in
    let pred = Array.make (m * words) 0 and succ = Array.make (m * words) 0 in
    let ext_in = Array.make words 0 and ext_out = Array.make words 0 in
    Array.iteri
      (fun i t ->
        let side rows ext v =
          let j = index tasks v in
          if j < 0 then set_bit ext 0 i else set_bit rows (i * words) j
        in
        Digraph.iter_pred (side pred ext_in) g t;
        Digraph.iter_succ (side succ ext_out) g t)
      tasks;
    { tasks; words; reach = Reach.restrict (Spec.reach spec) tasks; pred;
      succ; ext_in; ext_out; ins = Array.make words 0;
      outs = Array.make words 0 }

  let size fr = Array.length fr.tasks

  let empty fr = Array.make fr.words 0

  let singleton fr i =
    let s = empty fr in
    set_bit s 0 i;
    s

  let full fr =
    let s = empty fr in
    for i = 0 to size fr - 1 do
      set_bit s 0 i
    done;
    s

  let union_into ~into s =
    for k = 0 to Array.length into - 1 do
      into.(k) <- into.(k) lor s.(k)
    done

  let lowest s =
    let rec go k =
      if k >= Array.length s then max_int
      else if s.(k) <> 0 then (k * bits) + Bitset.lowest_bit s.(k)
      else go (k + 1)
    in
    go 0

  (* Members of [s] in increasing order. *)
  let fold f s init =
    let acc = ref init in
    for k = 0 to Array.length s - 1 do
      let word = ref s.(k) in
      while !word <> 0 do
        acc := f ((k * bits) + Bitset.lowest_bit !word) !acc;
        word := !word land (!word - 1)
      done
    done;
    !acc

  let iter f s = fold (fun i () -> f i) s ()

  let tasks fr s = List.rev (fold (fun i acc -> fr.tasks.(i) :: acc) s [])

  let has ext i = ext.(i / bits) land (1 lsl (i mod bits)) <> 0

  (* Does member [i] have a neighbour in [rows] (its predecessors or its
     successors) outside [u]: one outside the frame ([ext]), or a member
     missing from [u]? *)
  let crosses fr ext rows u i =
    has ext i
    ||
    let off = i * fr.words in
    let rec go k =
      k < fr.words && (rows.(off + k) land lnot u.(k) <> 0 || go (k + 1))
    in
    go 0

  (* Does member [i] reach every member of the [outs] row? *)
  let reaches_outs fr i =
    let off = i * fr.words in
    let rec go k =
      k >= fr.words
      || (fr.outs.(k) land lnot fr.reach.(off + k) = 0 && go (k + 1))
    in
    go 0

  (* The first member of the [ins] row (in member order) that misses some
     member of the [outs] row, or -1: the heart of Def 2.3. *)
  let first_bad_input fr =
    let found = ref (-1) and k = ref 0 in
    while !found < 0 && !k < fr.words do
      let word = ref fr.ins.(!k) in
      while !found < 0 && !word <> 0 do
        let i = (!k * bits) + Bitset.lowest_bit !word in
        if not (reaches_outs fr i) then found := i;
        word := !word land (!word - 1)
      done;
      incr k
    done;
    !found

  (* Fill the scratch rows with in(u) and out(u), member by member. *)
  let load_io fr u =
    for k = 0 to fr.words - 1 do
      let ins = ref 0 and outs = ref 0 and word = ref u.(k) in
      while !word <> 0 do
        let low = !word land (- !word) in
        let i = (k * bits) + Bitset.lowest_bit low in
        if crosses fr fr.ext_in fr.pred u i then ins := !ins lor low;
        if crosses fr fr.ext_out fr.succ u i then outs := !outs lor low;
        word := !word lxor low
      done;
      fr.ins.(k) <- !ins;
      fr.outs.(k) <- !outs
    done

  let sound fr u =
    Obs.incr m_subset_checks;
    load_io fr u;
    first_bad_input fr < 0

  let first_witness fr u =
    Obs.incr m_witness_scans;
    load_io fr u;
    let x = first_bad_input fr in
    if x < 0 then None
    else begin
      let off = x * fr.words in
      let rec missed k =
        let miss = fr.outs.(k) land lnot fr.reach.(off + k) in
        if miss <> 0 then (k * bits) + Bitset.lowest_bit miss
        else missed (k + 1)
      in
      Some (x, missed 0)
    end

  let outside fr ext rows x u =
    if has ext x then None
    else
      let off = x * fr.words in
      let missing = Array.init fr.words (fun k -> rows.(off + k) land lnot u.(k)) in
      Some (List.rev (fold List.cons missing []))

  let preds_outside fr x u = outside fr fr.ext_in fr.pred x u
  let succs_outside fr y u = outside fr fr.ext_out fr.succ y u
end

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
