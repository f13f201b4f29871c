(* The independent reference for Def 2.3 and the optimality definitions.

   The library decides every Def 2.3 check on a member frame
   (Soundness.Frame). These are the list-based checks it replaced: they
   walk the Def 2.2 in/out lists ([Soundness.subset_io]) and probe the
   spec's closure once per (input, output) pair, sharing no code with the
   frame. [Oracle] enumerates splits and merges on them (exponential where
   the definitions are), so checking a corrector against it never checks
   the kernel against itself. *)

open Wolves_workflow
module Bitset = Wolves_graph.Bitset
module Reach = Wolves_graph.Reach
module S = Wolves_core.Soundness

let subset_sound spec set =
  let r = Spec.reach spec in
  let { S.inputs; outputs } = S.subset_io spec set in
  List.for_all
    (fun ti -> List.for_all (fun to_ -> Reach.reaches r ti to_) outputs)
    inputs

let subset_witnesses spec set =
  let r = Spec.reach spec in
  let { S.inputs; outputs } = S.subset_io spec set in
  List.concat_map
    (fun ti ->
      List.filter_map
        (fun to_ -> if Reach.reaches r ti to_ then None else Some (ti, to_))
        outputs)
    inputs

(* Deletion-greedy minimal core: each pass tries dropping the members in
   increasing task order, until a pass removes nothing. *)
let minimal_core spec set =
  if subset_sound spec set then None
  else begin
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

(* Lanes: union-find over every pair of members, joined when one reaches
   the other (possibly through tasks outside the set). *)
let lanes spec set =
  let members = Array.of_list (Bitset.elements set) in
  let n = Array.length members in
  let r = Spec.reach spec in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        Reach.reaches r members.(i) members.(j)
        || Reach.reaches r members.(j) members.(i)
      then begin
        let ri = find i and rj = find j in
        if ri <> rj then parent.(ri) <- rj
      end
    done
  done;
  List.length (List.filter (fun i -> find i = i) (List.init n Fun.id))

module Oracle = struct
  let sound_part spec p = subset_sound spec (Bitset.of_list (Spec.n_tasks spec) p)

  (* Is this a partition of the members into sound parts? *)
  let valid_split spec members parts =
    let members = List.sort compare members in
    let flat = List.sort compare (List.concat parts) in
    members = flat
    && List.for_all (fun p -> p <> []) parts
    && List.for_all (sound_part spec) parts

  (* Def 2.5: no two parts combinable. O(p²) soundness checks. *)
  let weakly_local_optimal spec parts =
    let arr = Array.of_list parts in
    let p = Array.length arr in
    let ok = ref true in
    for i = 0 to p - 1 do
      for j = i + 1 to p - 1 do
        if sound_part spec (arr.(i) @ arr.(j)) then ok := false
      done
    done;
    !ok

  (* Def 2.6: no subset of >= 2 parts combinable. Enumerates the 2^p
     subsets; [None] when [p > max_parts]. Refuses a [max_parts] whose
     masks do not fit a non-negative int. *)
  let strongly_local_optimal ?(max_parts = 20) spec parts =
    if max_parts > S.Frame.max_parts then
      invalid_arg
        (Printf.sprintf
           "Def23_reference.Oracle.strongly_local_optimal: max_parts = %d \
            exceeds %d (its 2^%d masks must fit a non-negative int)"
           max_parts S.Frame.max_parts max_parts);
    let arr = Array.of_list parts in
    let p = Array.length arr in
    if p > max_parts then None
    else begin
      let n = Spec.n_tasks spec in
      let ok = ref true in
      for mask = 3 to (1 lsl p) - 1 do
        if !ok then begin
          let indices =
            List.filter (fun k -> mask land (1 lsl k) <> 0) (List.init p Fun.id)
          in
          if List.length indices >= 2 then begin
            let u = Bitset.create n in
            List.iter (fun k -> List.iter (Bitset.add u) arr.(k)) indices;
            if subset_sound spec u then ok := false
          end
        end
      done;
      Some !ok
    end
end
