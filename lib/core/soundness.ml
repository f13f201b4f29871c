open Wolves_workflow
module Bitset = Wolves_graph.Bitset
module Digraph = Wolves_graph.Digraph
module Reach = Wolves_graph.Reach
module Obs = Wolves_obs.Metrics
module Par = Wolves_par.Par

(* One branch each while metrics are disabled. Every Def 2.3 decision is a
   frame evaluation: [subset_checks] counts verdicts, [witness_scans] the
   evaluations that look for violating pairs, [frames] the frame builds
   they run on. *)
let m_subset_checks = Obs.counter "soundness.subset_checks"
let m_witness_scans = Obs.counter "soundness.witness_scans"
let m_frames = Obs.counter "soundness.frames"
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

  (* Position of task [t] in the increasing [tasks], or -1. The annotation
     makes the comparisons integer ones: polymorphic compare made this
     search most of a small frame's build. *)
  let index (tasks : Spec.task array) t =
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
    Obs.incr m_frames;
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

  let task fr i = fr.tasks.(i)

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

  let flip s i = s.(i / bits) <- s.(i / bits) lxor (1 lsl (i mod bits))

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

  (* Word [k] of the members of the [outs] row that member [i] misses. *)
  let missed fr i k = fr.outs.(k) land lnot fr.reach.((i * fr.words) + k)

  (* Does member [i] reach every member of the [outs] row? *)
  let reaches_outs fr i =
    let rec go k = k >= fr.words || (missed fr i k = 0 && go (k + 1)) in
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
      let rec first k =
        let miss = missed fr x k in
        if miss <> 0 then (k * bits) + Bitset.lowest_bit miss
        else first (k + 1)
      in
      Some (x, first 0)
    end

  let witness_count fr u =
    Obs.incr m_witness_scans;
    load_io fr u;
    fold
      (fun x count ->
        let count = ref count in
        for k = 0 to fr.words - 1 do
          count := !count + Bitset.popcount (missed fr x k)
        done;
        !count)
      fr.ins 0

  let witnesses fr u =
    Obs.incr m_witness_scans;
    load_io fr u;
    List.rev
      (fold
         (fun x acc ->
           fold (fun y acc -> (x, y) :: acc) (Array.init fr.words (missed fr x)) acc)
         fr.ins [])

  let minimal_core fr u =
    if sound fr u then None
    else begin
      (* Drop members while the remainder stays unsound, repeating until a
         full pass removes nothing (soundness is not monotone under subsets,
         so one pass does not suffice for minimality). *)
      let core = Array.copy u in
      let changed = ref true in
      while !changed do
        changed := false;
        iter
          (fun i ->
            flip core i;
            if sound fr core then flip core i else changed := true)
          (Array.copy core)
      done;
      Some core
    end

  (* Two members share a lane when one reaches the other (possibly through
     tasks outside the frame): union-find over the members' reach rows. *)
  let lanes fr u =
    let parent = Array.init (size fr) Fun.id in
    let rec find i =
      let p = parent.(i) in
      if p = i then i
      else begin
        parent.(i) <- parent.(p);
        find parent.(i)
      end
    in
    iter
      (fun i ->
        let row = Array.init fr.words (fun k -> fr.reach.((i * fr.words) + k) land u.(k)) in
        iter
          (fun j ->
            let ri = find i and rj = find j in
            if ri <> rj then parent.(ri) <- rj)
          row)
      u;
    fold (fun i n -> if find i = i then n + 1 else n) u 0

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

let kind_of_lanes lanes =
  if lanes >= 2 then Parallel_lanes lanes else Entangled

let frame_of spec set = Frame.make spec (Bitset.elements set)

let subset_sound spec set =
  let fr = frame_of spec set in
  Frame.sound fr (Frame.full fr)

let tasks_of_pairs fr pairs =
  List.map (fun (x, y) -> (Frame.task fr x, Frame.task fr y)) pairs

let subset_witnesses spec set =
  let fr = frame_of spec set in
  tasks_of_pairs fr (Frame.witnesses fr (Frame.full fr))

let classify_unsound spec set =
  let fr = frame_of spec set in
  let all = Frame.full fr in
  if Frame.sound fr all then None else Some (kind_of_lanes (Frame.lanes fr all))

let minimal_unsound_core spec set =
  let fr = frame_of spec set in
  Option.map
    (fun core -> Bitset.of_list (Bitset.capacity set) (Frame.tasks fr core))
    (Frame.minimal_core fr (Frame.full fr))

let composite_frame view c = Frame.make (View.spec view) (View.members view c)

let composite_io view c =
  let spec = View.spec view in
  subset_io spec (Bitset.of_list (Spec.n_tasks spec) (View.members view c))

let composite_sound view c =
  let fr = composite_frame view c in
  Frame.sound fr (Frame.full fr)

let composite_witnesses view c =
  let fr = composite_frame view c in
  tasks_of_pairs fr (Frame.witnesses fr (Frame.full fr))

type report = {
  view : View.t;
  unsound : (View.composite * int) list;
}

(* A singleton is sound (reachability is reflexive): it counts its scan
   without a frame. *)
let witness_count view c =
  match View.members view c with
  | [ _ ] ->
    Obs.incr m_witness_scans;
    0
  | _ ->
    let fr = composite_frame view c in
    Frame.witness_count fr (Frame.full fr)

let validate ?domains view =
  Obs.time t_validate
    ~args:(fun () ->
      [ ("workflow", Spec.name (View.spec view));
        ("composites", string_of_int (View.n_composites view)) ])
  @@ fun () ->
  (* The spec's closure is a lazy cache that workers must not race to
     build: force it here, before the composites are farmed out (and
     [Corrector.correct], which farms the splits after validating, relies
     on it). Each count only reads the spec and its closure, and records
     into the atomic metrics registry; [map_ordered] keeps the report in
     composite order. *)
  ignore (Spec.reach (View.spec view));
  let composites = Array.of_list (View.composites view) in
  let counts = Par.map_ordered ?domains (witness_count view) composites in
  { view;
    unsound =
      List.filter (fun (_, k) -> k > 0)
        (Array.to_list (Array.combine composites counts)) }

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
      (fun (c, _) ->
        Format.fprintf ppf "@\n  composite %S:" (View.composite_name view c);
        List.iter
          (fun (ti, to_) ->
            Format.fprintf ppf "@\n    no path %S -> %S" (Spec.task_name spec ti)
              (Spec.task_name spec to_))
          (composite_witnesses view c))
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
