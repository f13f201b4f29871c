module Par = Wolves_par.Par

type t = {
  n : int;
  rows : Bitset.t array; (* rows.(v) = descendants of v, v included *)
  trans : Bitset.t array; (* trans.(v) = ancestors of v, v included *)
}

(* Longest-path level of every node counted from the sinks: level v =
   1 + max over successors, 0 for sinks. All nodes of one level have their
   successors strictly below it, so a level is a dependency-free batch the
   domain pool can fill concurrently (reverse topological order is exactly
   "levels in increasing order"). *)
let level_buckets g order =
  let n = Digraph.n_nodes g in
  let level = Array.make n 0 in
  let max_level = ref 0 in
  List.iter
    (fun v ->
      let l =
        List.fold_left
          (fun acc w -> max acc (level.(w) + 1))
          0 (Digraph.succ g v)
      in
      level.(v) <- l;
      if l > !max_level then max_level := l)
    (List.rev order);
  let buckets = Array.make (!max_level + 1) [] in
  for v = n - 1 downto 0 do
    buckets.(level.(v)) <- v :: buckets.(level.(v))
  done;
  Array.map Array.of_list buckets

(* Fill one row: the node itself plus the union of its successors' rows,
   cache-blocked across the successor group. Safe to run concurrently for
   all nodes of one level — each call writes only its own row and reads
   rows of strictly lower levels, which the pool's join barrier has already
   made visible. *)
let fill_row g rows v =
  let row = rows.(v) in
  Bitset.add row v;
  match Digraph.succ g v with
  | [] -> ()
  | succs ->
    Bitset.union_many_into ~into:row
      (Array.of_list (List.map (fun w -> rows.(w)) succs))

(* The closure rows of [g] given a topological [order]: filled
   sequentially in reverse topological order (every successor row is
   already final), or one longest-path level at a time across the pool. *)
let dag_rows g order =
  let n = Digraph.n_nodes g in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  if Par.default_domains () <= 1 then
    List.iter (fun v -> fill_row g rows v) (List.rev order)
  else
    Array.iter
      (fun nodes ->
        Par.parallel_for (Array.length nodes) (fun i ->
            fill_row g rows nodes.(i)))
      (level_buckets g order);
  rows

let general_rows g =
  let n = Digraph.n_nodes g in
  let dag, comp = Algo.condensation g in
  let comp_order =
    match Algo.topological_sort dag with
    | Some order -> order
    | None -> assert false (* condensations are acyclic *)
  in
  (* Closure over components, then expanded to member nodes. *)
  let count = Digraph.n_nodes dag in
  let comp_rows = dag_rows dag comp_order in
  let members = Array.make count [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  let expanded = Array.init count (fun _ -> Bitset.create n) in
  Par.parallel_for count (fun c ->
      Bitset.iter
        (fun d -> List.iter (fun v -> Bitset.add expanded.(c) v) members.(d))
        comp_rows.(c));
  (* All member nodes of one SCC share the component's expanded row. The
     sharing is an internal memory optimisation only: every accessor either
     reads the rows or hands out copies, so the aliasing cannot be observed
     (see the [descendants] ownership contract in the interface). *)
  Array.init n (fun v -> expanded.(comp.(v)))

(* The ancestor rows are the closure of the reversed graph, built by the
   same kernel as the descendant rows: a topological order of [g] read
   backwards is one of its transpose. *)
let compute g =
  let back = Digraph.transpose g in
  let rows, trans =
    match Algo.topological_sort g with
    | Some order -> (dag_rows g order, dag_rows back (List.rev order))
    | None -> (general_rows g, general_rows back)
  in
  { n = Digraph.n_nodes g; rows; trans }

let graph_size r = r.n

let equal a b =
  a.n = b.n
  && Array.for_all2 Bitset.equal a.rows b.rows
  && Array.for_all2 Bitset.equal a.trans b.trans

let check r v =
  if v < 0 || v >= r.n then
    invalid_arg (Printf.sprintf "Reach: unknown node %d" v)

let reaches r u v =
  check r u;
  check r v;
  Bitset.mem r.rows.(u) v

let row_subset r set v =
  check r v;
  Bitset.subset set r.rows.(v)

let descendants r v =
  check r v;
  (* A fresh copy: the internal row may be shared between the nodes of an
     SCC, so handing it out live would let one caller's mutation corrupt
     the closure for every sibling (and every later query). *)
  Bitset.copy r.rows.(v)

let union_descendants_into r ~into v =
  check r v;
  Bitset.union_into ~into r.rows.(v)

let restrict r nodes =
  let k = Array.length nodes in
  let w = (k + Bitset.bits_per_word - 1) / Bitset.bits_per_word in
  let rows = Array.make (k * w) 0 in
  Array.iteri
    (fun i v ->
      check r v;
      Bitset.gather_into r.rows.(v) nodes ~into:rows ~off:(i * w))
    nodes;
  rows

let ancestors r v =
  check r v;
  Bitset.copy r.trans.(v)

let ancestors_of_set r set =
  let result = Bitset.create r.n in
  Bitset.union_many_into ~into:result
    (Array.of_list (List.map (fun v -> r.trans.(v)) (Bitset.elements set)));
  result

let descendants_of_set r set =
  let result = Bitset.create r.n in
  Bitset.union_many_into ~into:result
    (Array.of_list (List.map (fun v -> r.rows.(v)) (Bitset.elements set)));
  result

let n_closure_edges r =
  Array.fold_left (fun acc row -> acc + Bitset.cardinal row) 0 r.rows
