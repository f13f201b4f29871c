(* Unit and property tests for the graph substrate (Bitset, Digraph, Algo,
   Reach, Dot). *)

module Bitset = Wolves_graph.Bitset
module Digraph = Wolves_graph.Digraph
module Algo = Wolves_graph.Algo
module Reach = Wolves_graph.Reach
module Dot = Wolves_graph.Dot
module Dominators = Wolves_graph.Dominators
module Spec = Wolves_workflow.Spec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_int_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check_bool "fresh set empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check_int "cardinal" 4 (Bitset.cardinal s);
  check_bool "mem 63" true (Bitset.mem s 63);
  check_bool "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  check_bool "removed" false (Bitset.mem s 63);
  check_int_list "elements sorted" [ 0; 64; 99 ] (Bitset.elements s);
  (* 63 members per word: 62, 125 and 188 are the top bit of words 0-2, the
     sign bit of the OCaml int *)
  let t = Bitset.of_list 200 [ 188; 0; 125; 63; 62; 199; 126 ] in
  check_int_list "word-top bits in order" [ 0; 62; 63; 125; 126; 188; 199 ]
    (Bitset.elements t)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Bitset.add: 10 out of [0, 10)") (fun () ->
      Bitset.add s 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bitset.mem: -1 out of [0, 10)")
    (fun () -> ignore (Bitset.mem s (-1)))

let test_bitset_fill_clear () =
  let s = Bitset.create 130 in
  Bitset.fill s;
  check_int "fill cardinal" 130 (Bitset.cardinal s);
  check_bool "last member" true (Bitset.mem s 129);
  Bitset.clear s;
  check_bool "cleared" true (Bitset.is_empty s)

let test_bitset_fill_word_boundary () =
  (* capacity = multiple of the word size: the tail mask must not erase. *)
  let s = Bitset.create 126 in
  Bitset.fill s;
  check_int "fill at word boundary" 126 (Bitset.cardinal s)

let test_bitset_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3; 10 ] in
  let b = Bitset.of_list 20 [ 3; 10; 15 ] in
  check_int_list "union" [ 1; 2; 3; 10; 15 ] (Bitset.elements (Bitset.union a b));
  check_int_list "inter" [ 3; 10 ] (Bitset.elements (Bitset.inter a b));
  check_int_list "diff" [ 1; 2 ] (Bitset.elements (Bitset.diff a b));
  check_bool "subset no" false (Bitset.subset a b);
  check_bool "subset yes" true (Bitset.subset (Bitset.inter a b) a);
  check_bool "disjoint no" false (Bitset.disjoint a b);
  check_bool "disjoint yes" true
    (Bitset.disjoint (Bitset.diff a b) (Bitset.diff b a))

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 5 and b = Bitset.create 6 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch (5 vs 6)")
    (fun () -> Bitset.union_into ~into:a b)

let test_bitset_choose_fold () =
  let s = Bitset.of_list 50 [ 42; 7; 13 ] in
  Alcotest.(check (option int)) "choose = min" (Some 7) (Bitset.choose s);
  check_int "fold sum" 62 (Bitset.fold ( + ) s 0);
  check_bool "for_all" true (Bitset.for_all (fun i -> i > 0) s);
  check_bool "exists" true (Bitset.exists (fun i -> i = 42) s);
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose (Bitset.create 3))

(* The counter-backed early-exit tests: subset/disjoint must stop scanning
   at the first violating word, not wander on to the end of kiloword sets.
   Both sets span 100 words; the violation sits in word 0. *)
let test_bitset_subset_early_exit () =
  let n = 6400 in
  let a = Bitset.of_list n [ 0; 6399 ] in
  let b = Bitset.of_list n [ 6399 ] in
  let scans f =
    let before = Bitset.words_scanned () in
    let v = f () in
    (v, Bitset.words_scanned () - before)
  in
  (* A positive subset check must visit every word: that's the reference
     count the early exits are measured against (the word size is an
     implementation detail, so derive it rather than hardcode it). *)
  let v, full = scans (fun () -> Bitset.subset b a) in
  check_bool "is a subset" true v;
  check_bool "full scan covers many words" true (full > 50);
  let v, scanned = scans (fun () -> Bitset.subset a b) in
  check_bool "not a subset" false v;
  check_int "subset stopped at word 0" 1 scanned;
  let v, scanned = scans (fun () -> Bitset.disjoint a b) in
  check_bool "not disjoint" false v;
  check_int "disjoint stopped at the shared last word" full scanned;
  let c = Bitset.of_list n [ 0 ] in
  let v, scanned = scans (fun () -> Bitset.disjoint a c) in
  check_bool "overlap in word 0" false v;
  check_int "disjoint stopped at word 0" 1 scanned

(* for_all/exists must stop visiting members once the answer is settled. *)
let test_bitset_quantifier_early_exit () =
  let s = Bitset.of_list 6400 (List.init 100 (fun i -> i * 64)) in
  let visited = ref 0 in
  check_bool "exists finds the first member" true
    (Bitset.exists (fun i -> incr visited; i = 0) s);
  check_int "exists visited one member" 1 !visited;
  visited := 0;
  check_bool "for_all fails on the first member" false
    (Bitset.for_all (fun i -> incr visited; i > 0) s);
  check_int "for_all visited one member" 1 !visited;
  visited := 0;
  check_bool "for_all sweeps when it holds" true
    (Bitset.for_all (fun i -> incr visited; i mod 64 = 0) s);
  check_int "for_all visited every member" 100 !visited

(* The cache-blocked multi-source union agrees with folding union_into. *)
let union_many_agrees =
  QCheck2.Test.make ~name:"union_many_into = folded union_into" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 600) (list_size (int_range 0 6) (list (int_bound 599))))
    (fun (n, sources) ->
      let sources = List.map (List.filter (fun x -> x < n)) sources in
      let sets = List.map (Bitset.of_list n) sources in
      let blocked = Bitset.create n in
      Bitset.union_many_into ~into:blocked (Array.of_list sets);
      let folded = Bitset.create n in
      List.iter (fun s -> Bitset.union_into ~into:folded s) sets;
      Bitset.equal blocked folded)

(* A simple model-based property: bitset ops agree with list-set ops. *)
let bitset_model_prop =
  QCheck2.Test.make ~name:"bitset agrees with list-set model" ~count:200
    QCheck2.Gen.(
      pair (list (int_bound 199)) (list (int_bound 199)))
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let sx = S.of_list xs and sy = S.of_list ys in
      let bx = Bitset.of_list 200 xs and by = Bitset.of_list 200 ys in
      S.elements (S.union sx sy) = Bitset.elements (Bitset.union bx by)
      && S.elements (S.inter sx sy) = Bitset.elements (Bitset.inter bx by)
      && S.elements (S.diff sx sy) = Bitset.elements (Bitset.diff bx by)
      && S.cardinal sx = Bitset.cardinal bx
      && S.subset sx sy = Bitset.subset bx by
      && S.disjoint sx sy = Bitset.disjoint bx by)

(* iter uses lowest-set-bit extraction; pin it against the straightforward
   per-index scan, and against elements/fold, across word boundaries. *)
let bitset_iter_prop =
  QCheck2.Test.make ~name:"iter agrees with per-index scan" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 200) (list (int_bound 199)))
    (fun (n, xs) ->
      let xs = List.filter (fun x -> x < n) xs in
      let s = Bitset.of_list n xs in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      let via_iter = List.rev !via_iter in
      let via_scan =
        List.filter (fun i -> Bitset.mem s i) (List.init n Fun.id)
      in
      via_iter = via_scan
      && via_iter = Bitset.elements s
      && via_iter
         = List.rev (Bitset.fold (fun i acc -> i :: acc) s []))

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Digraph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_digraph_build () =
  let g = diamond () in
  check_int "nodes" 4 (Digraph.n_nodes g);
  check_int "edges" 4 (Digraph.n_edges g);
  check_int_list "succ 0" [ 0; 1; 2; 3 ] (List.sort compare (0 :: 3 :: Digraph.succ g 0));
  check_int_list "pred 3" [ 1; 2 ] (List.sort compare (Digraph.pred g 3));
  check_bool "mem_edge" true (Digraph.mem_edge g 0 1);
  check_bool "mem_edge rev" false (Digraph.mem_edge g 1 0)

let test_digraph_idempotent_add () =
  let g = Digraph.create () in
  Digraph.add_nodes g 2;
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 1;
  check_int "no parallel edge" 1 (Digraph.n_edges g)

let test_digraph_remove () =
  let g = diamond () in
  Digraph.remove_edge g 0 1;
  check_int "edges after remove" 3 (Digraph.n_edges g);
  check_bool "gone" false (Digraph.mem_edge g 0 1);
  Digraph.remove_edge g 0 1;
  check_int "idempotent remove" 3 (Digraph.n_edges g);
  check_int_list "pred updated" [ 2 ] (Digraph.pred g 3 |> List.filter (( = ) 2))

let test_digraph_bad_edge () =
  let g = Digraph.create () in
  Digraph.add_nodes g 1;
  Alcotest.check_raises "unknown target"
    (Invalid_argument "Digraph.add_edge: unknown node 1") (fun () ->
      Digraph.add_edge g 0 1)

let test_digraph_transpose () =
  let g = diamond () in
  let t = Digraph.transpose g in
  check_bool "reversed" true (Digraph.mem_edge t 3 1);
  check_bool "reversed2" true (Digraph.mem_edge t 1 0);
  check_int "same edge count" (Digraph.n_edges g) (Digraph.n_edges t);
  check_bool "double transpose = original" true
    (Digraph.equal g (Digraph.transpose t))

(* [transpose] conses reversed edges directly; it must build the lists the
   edge-by-edge definition builds, in the same order, on graphs whose hubs
   have high fan-in and fan-out and whose edges arrive in random order
   (cycles and self-loops included). *)
let transpose_by_edges g =
  let t = Digraph.create ~initial_capacity:(Digraph.n_nodes g) () in
  Digraph.add_nodes t (Digraph.n_nodes g);
  Digraph.iter_edges (fun u v -> Digraph.add_edge t v u) g;
  t

let hub_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let node = int_bound (n - 1) in
    let* hubs = list_size (int_range 0 3) node in
    let* spokes =
      flatten_l
        (List.map
           (fun h ->
             let+ outs = list_size (int_range 0 (2 * n)) node
             and+ ins = list_size (int_range 0 (2 * n)) node in
             List.map (fun v -> (h, v)) outs @ List.map (fun u -> (u, h)) ins)
           hubs)
    in
    let* random = list_size (int_range 0 (3 * n)) (pair node node) in
    let+ order = shuffle_l (List.concat spokes @ random) in
    (n, order))

let transpose_matches_edge_by_edge =
  QCheck2.Test.make ~name:"transpose = edge-by-edge transpose (lists in order)"
    ~count:300 hub_graph_gen
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let t = Digraph.transpose g and t' = transpose_by_edges g in
      Digraph.n_nodes t = n
      && Digraph.n_edges t = Digraph.n_edges t'
      && List.for_all
           (fun v ->
             Digraph.succ t v = Digraph.succ t' v && Digraph.pred t v = Digraph.pred t' v)
           (List.init n Fun.id))

let test_digraph_induced () =
  let g = diamond () in
  let sub, back = Digraph.induced g [ 0; 1; 3 ] in
  check_int "sub nodes" 3 (Digraph.n_nodes sub);
  check_int "sub edges" 2 (Digraph.n_edges sub);
  check_bool "kept 0->1" true (Digraph.mem_edge sub 0 1);
  check_bool "kept 1->3" true (Digraph.mem_edge sub 1 2);
  check_int "back map" 3 back.(2)

let test_digraph_induced_dup () =
  let g = diamond () in
  Alcotest.check_raises "duplicate" (Invalid_argument "Digraph.induced: duplicate node")
    (fun () -> ignore (Digraph.induced g [ 0; 0 ]))

let test_digraph_copy_isolated () =
  let g = diamond () in
  let h = Digraph.copy g in
  Digraph.add_edge h 3 0;
  check_bool "copy independent" false (Digraph.mem_edge g 3 0);
  check_bool "copy got edge" true (Digraph.mem_edge h 3 0)

(* ------------------------------------------------------------------ *)
(* Algo                                                                *)
(* ------------------------------------------------------------------ *)

let test_topo_diamond () =
  let g = diamond () in
  match Algo.topological_sort g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
    check_int_list "deterministic topo" [ 0; 1; 2; 3 ] order

let test_topo_cycle () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check_bool "cycle detected" false (Algo.is_dag g);
  match Algo.find_cycle g with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    check_int "cycle length" 3 (List.length cycle);
    (* Every consecutive pair (and the wrap-around) must be an edge. *)
    let arr = Array.of_list cycle in
    Array.iteri
      (fun i v ->
        let w = arr.((i + 1) mod Array.length arr) in
        check_bool "cycle edge" true (Digraph.mem_edge g v w))
      arr

let test_self_loop_cycle () =
  let g = Digraph.of_edges ~n:2 [ (0, 0); (0, 1) ] in
  check_bool "self loop is a cycle" false (Algo.is_dag g);
  match Algo.find_cycle g with
  | Some [ v ] -> check_int "loop node" 0 v
  | _ -> Alcotest.fail "expected the self-loop"

let test_bfs () =
  let g = Digraph.of_edges ~n:6 [ (0, 1); (0, 2); (1, 3); (2, 3); (4, 5) ] in
  check_int_list "bfs from 0" [ 0; 1; 2; 3 ] (Algo.bfs_order g [ 0 ]);
  check_int_list "bfs two sources" [ 0; 4; 1; 2; 5; 3 ] (Algo.bfs_order g [ 0; 4 ]);
  check_int_list "reachable set" [ 0; 1; 2; 3 ]
    (Bitset.elements (Algo.reachable_from g [ 0 ]));
  check_int_list "reaching set" [ 0; 1; 2; 3 ]
    (Bitset.elements (Algo.reaching_to g [ 3 ]))

let test_sources_sinks () =
  let g = Digraph.of_edges ~n:5 [ (0, 2); (1, 2); (2, 3); (2, 4) ] in
  check_int_list "sources" [ 0; 1 ] (Algo.sources g);
  check_int_list "sinks" [ 3; 4 ] (Algo.sinks g)

let test_scc () =
  (* Two 2-cycles joined by an edge, plus an isolated node. *)
  let g =
    Digraph.of_edges ~n:5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ]
  in
  let comp, count = Algo.scc g in
  check_int "three components" 3 count;
  check_int "0 and 1 together" comp.(0) comp.(1);
  check_int "2 and 3 together" comp.(2) comp.(3);
  check_bool "separate" true (comp.(0) <> comp.(2));
  (* Reverse topological numbering: the sink component {2,3} comes first. *)
  check_bool "sink scc numbered lower" true (comp.(2) < comp.(0));
  let dag, comp' = Algo.condensation g in
  check_bool "same map" true (comp = comp');
  check_bool "condensation acyclic" true (Algo.is_dag dag);
  check_bool "condensation edge" true (Digraph.mem_edge dag comp.(1) comp.(2))

let test_longest_path () =
  let g = Digraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (0, 4) ] in
  check_int "longest path" 3 (Algo.longest_path_length g)

let test_dfs_postorder_covers_all () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_int_list "postorder covers all nodes" [ 0; 1; 2; 3 ]
    (List.sort compare (Algo.dfs_postorder g))

let test_deep_chain_no_overflow () =
  (* 200k-node chain: traversals must be stack safe. *)
  let n = 200_000 in
  let g = Digraph.create ~initial_capacity:n () in
  Digraph.add_nodes g n;
  for v = 0 to n - 2 do
    Digraph.add_edge g v (v + 1)
  done;
  check_int "postorder length" n (List.length (Algo.dfs_postorder g));
  let _, count = Algo.scc g in
  check_int "scc count on chain" n count;
  check_int "longest path" (n - 1) (Algo.longest_path_length g)

(* ------------------------------------------------------------------ *)
(* Reach                                                               *)
(* ------------------------------------------------------------------ *)

let test_reach_diamond () =
  let r = Reach.compute (diamond ()) in
  check_bool "0 reaches 3" true (Reach.reaches r 0 3);
  check_bool "reflexive" true (Reach.reaches r 2 2);
  check_bool "no back path" false (Reach.reaches r 3 0);
  check_int_list "descendants 0" [ 0; 1; 2; 3 ] (Bitset.elements (Reach.descendants r 0));
  check_int_list "ancestors 3" [ 0; 1; 2; 3 ] (Bitset.elements (Reach.ancestors r 3));
  (* rows: {0,1,2,3}, {1,3}, {2,3}, {3} *)
  check_int "closure edges" (4 + 2 + 2 + 1) (Reach.n_closure_edges r)

let test_reach_cyclic () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 0); (1, 2); (3, 0) ] in
  let r = Reach.compute g in
  check_bool "within scc" true (Reach.reaches r 0 1 && Reach.reaches r 1 0);
  check_bool "out of scc" true (Reach.reaches r 0 2);
  check_bool "into scc" true (Reach.reaches r 3 2);
  check_bool "not backwards" false (Reach.reaches r 2 0)

let test_reach_set_queries () =
  let g = Digraph.of_edges ~n:6 [ (0, 2); (1, 2); (2, 3); (3, 4); (5, 4) ] in
  let r = Reach.compute g in
  let set = Bitset.of_list 6 [ 3 ] in
  check_int_list "ancestors of {3}" [ 0; 1; 2; 3 ]
    (Bitset.elements (Reach.ancestors_of_set r set));
  check_int_list "descendants of {3}" [ 3; 4 ]
    (Bitset.elements (Reach.descendants_of_set r set))

(* Regression: [descendants] hands out a fresh set. The cyclic closure
   shares one internal row across an SCC's members, so a live handle would
   let a caller's mutation corrupt [reaches] for every sibling node. *)
let test_reach_descendants_owned () =
  (* 0 <-> 1 form an SCC reaching 2; 3 reaches the SCC. *)
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 0); (1, 2); (3, 0) ] in
  let r = Reach.compute g in
  let d0 = Reach.descendants r 0 in
  check_int_list "descendants of 0" [ 0; 1; 2 ] (Bitset.elements d0);
  Bitset.clear d0;
  Bitset.add d0 3;
  check_bool "reaches unaffected by clearing the result" true
    (Reach.reaches r 0 2);
  check_bool "sibling SCC member unaffected" true (Reach.reaches r 1 2);
  check_bool "no phantom edge from the mutation" false (Reach.reaches r 0 3);
  check_int_list "second query sees the original row" [ 0; 1; 2 ]
    (Bitset.elements (Reach.descendants r 0));
  (* Same contract on the DAG path. *)
  let dag = Digraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let rd = Reach.compute dag in
  let d = Reach.descendants rd 0 in
  Bitset.clear d;
  check_bool "dag reaches unaffected" true (Reach.reaches rd 0 2);
  (* And the allocation-free accessor accumulates without exposing rows. *)
  let acc = Bitset.create 4 in
  Reach.union_descendants_into r ~into:acc 3;
  check_int_list "union_descendants_into" [ 0; 1; 2; 3 ] (Bitset.elements acc)

(* Property: closure agrees with per-pair BFS on random DAGs. *)
let random_dag_gen =
  (* Build a DAG by only adding forward edges u < v. *)
  QCheck2.Gen.(
    bind (int_range 2 14) (fun n ->
        let all_pairs =
          List.concat_map
            (fun u -> List.init (n - 1 - u) (fun k -> (u, u + 1 + k)))
            (List.init n Fun.id)
        in
        let pick_edge pair = map (fun b -> (b, pair)) bool in
        map
          (fun tagged ->
            (n, List.filter_map (fun (b, e) -> if b then Some e else None) tagged))
          (flatten_l (List.map pick_edge all_pairs))))

let reach_agrees_with_bfs =
  QCheck2.Test.make ~name:"transitive closure agrees with BFS" ~count:100
    random_dag_gen
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let r = Reach.compute g in
      List.for_all
        (fun u ->
          let reachable = Algo.reachable_from g [ u ] in
          List.for_all
            (fun v -> Reach.reaches r u v = Bitset.mem reachable v)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* Random graphs with cycles: a random DAG plus the 2-cycle 0 <-> 1 and
   some of its edges reversed, so the SCC path of [Reach.compute] runs. *)
let random_cyclic_gen =
  QCheck2.Gen.(
    bind random_dag_gen (fun (n, edges) ->
        map
          (fun flips ->
            let backs =
              List.filter_map
                (fun ((u, v), flip) -> if flip then Some (v, u) else None)
                (List.combine edges flips)
            in
            (n, ((0, 1) :: (1, 0) :: edges) @ backs))
          (list_repeat (List.length edges) (map (fun k -> k = 0) (int_bound 4)))))

(* Both ancestor accessors against their definitions: [ancestors r v] is
   {u | reaches r u v} and [ancestors_of_set] is the union of those sets,
   checked on the empty set, the full set and three residue classes. *)
let ancestor_rows_agree (n, edges) =
  let r = Reach.compute (Digraph.of_edges ~n edges) in
  let nodes = List.init n Fun.id in
  let inverted v = List.filter (fun u -> Reach.reaches r u v) nodes in
  let union_of set =
    List.sort_uniq compare (List.concat_map inverted (Bitset.elements set))
  in
  let sets =
    Bitset.create n
    :: Bitset.of_list n nodes
    :: List.map
         (fun k -> Bitset.of_list n (List.filter (fun v -> (v + k) mod 3 = 0) nodes))
         [ 0; 1; 2 ]
  in
  List.for_all (fun v -> Bitset.elements (Reach.ancestors r v) = inverted v) nodes
  && List.for_all
       (fun set -> Bitset.elements (Reach.ancestors_of_set r set) = union_of set)
       sets

(* On DAGs and on graphs with cycles alike. *)
let ancestors_agree =
  QCheck2.Test.make ~name:"ancestors = inverted reaches" ~count:200
    QCheck2.Gen.(oneof [ random_dag_gen; random_cyclic_gen ])
    ancestor_rows_agree

(* A freshly built index is immutable: four domains querying it at once,
   with nothing forced beforehand, see exactly what a sequential run sees. *)
let test_reach_domain_safe () =
  let g =
    Spec.graph
      (Wolves_workload.Generate.generate Wolves_workload.Generate.Layered
         ~seed:5 ~size:1000)
  in
  let n = Digraph.n_nodes g in
  let run r =
    List.init n (fun v ->
        let set = Bitset.of_list n [ v; v * 7 mod n; v * 13 mod n ] in
        ( Bitset.elements (Reach.ancestors r v),
          Bitset.elements (Reach.ancestors_of_set r set) ))
  in
  let expected = run (Reach.compute g) in
  let r = Reach.compute g in
  let ready = Atomic.make 0 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < 4 do
              Domain.cpu_relax ()
            done;
            run r))
  in
  List.iteri
    (fun i d ->
      check_bool
        (Printf.sprintf "domain %d matches the sequential run" i)
        true
        (Domain.join d = expected))
    workers

let topo_respects_edges =
  QCheck2.Test.make ~name:"topological order sorts every edge" ~count:100
    random_dag_gen
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      match Algo.topological_sort g with
      | None -> false
      | Some order ->
        let position = Array.make n 0 in
        List.iteri (fun i v -> position.(v) <- i) order;
        List.for_all (fun (u, v) -> position.(u) < position.(v)) edges)

let scc_condensation_is_dag =
  (* Random (possibly cyclic) graphs: condensation must be acyclic and
     preserve reachability. *)
  let gen =
    QCheck2.Gen.(
      bind (int_range 2 10) (fun n ->
          map
            (fun pairs -> (n, List.map (fun (u, v) -> (u mod n, v mod n)) pairs))
            (list_size (int_range 0 25) (pair (int_bound 100) (int_bound 100)))))
  in
  QCheck2.Test.make ~name:"condensation acyclic + reachability preserved"
    ~count:100 gen
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let dag, comp = Algo.condensation g in
      let r = Reach.compute g and rc = Reach.compute dag in
      Algo.is_dag dag
      && List.for_all
           (fun u ->
             List.for_all
               (fun v -> Reach.reaches r u v = Reach.reaches rc comp.(u) comp.(v))
               (List.init n Fun.id))
           (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_output () =
  let g = diamond () in
  let dot =
    Dot.to_string ~graph_name:"d"
      ~node_label:(fun v -> Printf.sprintf "t%d" v)
      ~clusters:
        [ { Dot.cluster_name = "c0";
            cluster_label = "first \"half\"";
            cluster_nodes = [ 0; 1 ];
            cluster_color = Some "red" } ]
      g
  in
  let contains needle =
    let len_n = String.length needle and len_h = String.length dot in
    let rec go i = i + len_n <= len_h && (String.sub dot i len_n = needle || go (i + 1)) in
    go 0
  in
  check_bool "has edge" true (contains "n0 -> n1;");
  check_bool "has cluster" true (contains "subgraph \"cluster_c0\"");
  check_bool "escaped label" true (contains "first \\\"half\\\"");
  check_bool "cluster color" true (contains "color=\"red\"");
  check_bool "labels" true (contains "label=\"t3\"")

let test_dot_escape () =
  Alcotest.(check string) "escape" "a\\\"b\\\\c\\nd" (Dot.escape "a\"b\\c\nd")


(* ------------------------------------------------------------------ *)
(* Dominators                                                          *)
(* ------------------------------------------------------------------ *)

let test_dominators_diamond () =
  let g = diamond () in
  let dom = Dominators.compute g in
  Alcotest.(check (option int)) "idom of 1" (Some 0) (Dominators.idom dom 1);
  Alcotest.(check (option int)) "idom of 3 skips branches" (Some 0)
    (Dominators.idom dom 3);
  check_bool "0 dominates all" true
    (List.for_all (fun v -> Dominators.dominates dom 0 v) [ 0; 1; 2; 3 ]);
  check_bool "1 does not dominate 3" false (Dominators.dominates dom 1 3);
  let post = Dominators.compute_post g in
  Alcotest.(check (option int)) "3 postdominates the branches" (Some 3)
    (Dominators.common post [ 1; 2 ])

let test_dominators_multi_source () =
  (* Two sources joining: neither source dominates the join. *)
  let g = Digraph.of_edges ~n:3 [ (0, 2); (1, 2) ] in
  let dom = Dominators.compute g in
  Alcotest.(check (option int)) "join dominated only by virtual root" None
    (Dominators.idom dom 2);
  check_bool "0 does not dominate 2" false (Dominators.dominates dom 0 2)

let test_dominators_chain () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let dom = Dominators.compute g in
  check_bool "chain: every prefix dominates" true
    (Dominators.dominates dom 1 3 && Dominators.dominates dom 0 3);
  Alcotest.(check (option int)) "common of {2,3}" (Some 2)
    (Dominators.common dom [ 2; 3 ])

let test_dominators_cycle_rejected () =
  let g = Digraph.of_edges ~n:2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Dominators.compute: graph has a cycle")
    (fun () -> ignore (Dominators.compute g))

let prop_dominators_definition =
  (* d dominates v iff removing d disconnects v from every source. *)
  QCheck2.Test.make ~name:"dominators match the path definition" ~count:100
    random_dag_gen
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let dom = Dominators.compute g in
      let sources = Algo.sources g in
      let reaches_avoiding d v =
        (* Is v reachable from some source without passing through d? *)
        if List.mem v sources && v <> d then true
        else begin
          let blocked = Digraph.copy g in
          (* cut d's out-edges so paths cannot continue through it *)
          List.iter (fun w -> Digraph.remove_edge blocked d w) (Digraph.succ g d);
          let from_sources =
            Algo.reachable_from blocked (List.filter (fun s -> s <> d) sources)
          in
          Bitset.mem from_sources v
        end
      in
      List.for_all
        (fun d ->
          List.for_all
            (fun v ->
              let dominated = Dominators.dominates dom d v in
              if d = v then dominated
              else dominated = not (reaches_avoiding d v))
            (List.init n Fun.id))
        (List.init n Fun.id))


let test_dominators_single_entry_chain () =
  (* Regression: on a single-entry chain every prefix dominates every
     suffix, the idom is the immediate predecessor, and the dominator-tree
     intervals are strictly nested along the chain. *)
  let n = 100 in
  let g = Digraph.of_edges ~n (List.init (n - 1) (fun v -> (v, v + 1))) in
  let dom = Dominators.compute g in
  for v = 1 to n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "idom of %d is its predecessor" v)
      (Some (v - 1)) (Dominators.idom dom v)
  done;
  Alcotest.(check (option int)) "the entry has no idom" None
    (Dominators.idom dom 0);
  let pre, post = Dominators.tree_intervals dom in
  for v = 0 to n - 2 do
    check_bool "intervals nest along the chain" true
      (pre.(v) < pre.(v + 1) && post.(v + 1) < post.(v));
    check_bool "prefix dominates suffix" true
      (Dominators.dominates dom v (v + 1));
    check_bool "suffix does not dominate prefix" false
      (Dominators.dominates dom (v + 1) v)
  done

(* The generator families give realistic workflow DAGs (multi-source, so
   the virtual-root handling is exercised too). *)
let family_graphs () =
  List.concat_map
    (fun family ->
      List.map
        (fun (seed, size) ->
          Spec.graph (Wolves_workload.Generate.generate family ~seed ~size))
        [ (3, 25); (11, 60); (29, 110) ])
    Wolves_workload.Generate.all_families

let test_idom_deepest_dominator () =
  (* The defining property of the immediate dominator: it is itself a
     proper dominator, and every other proper dominator dominates it — the
     idom is the deepest, so the proper dominators form a chain ending at
     it. *)
  List.iter
    (fun g ->
      let n = Digraph.n_nodes g in
      let dom = Dominators.compute g in
      for v = 0 to n - 1 do
        let proper =
          List.filter
            (fun d -> d <> v && Dominators.dominates dom d v)
            (List.init n Fun.id)
        in
        match Dominators.idom dom v with
        | None -> check_bool "no idom means no proper dominator" true (proper = [])
        | Some d ->
          check_bool "idom is a proper dominator" true (List.mem d proper);
          List.iter
            (fun d' ->
              check_bool "every other dominator dominates the idom" true
                (d' = d || Dominators.dominates dom d' d))
            proper
      done)
    (family_graphs ())

let test_tree_intervals_agree () =
  (* The O(1) interval test must coincide with [dominates] on every pair. *)
  List.iter
    (fun g ->
      let n = Digraph.n_nodes g in
      let dom = Dominators.compute g in
      let pre, post = Dominators.tree_intervals dom in
      for d = 0 to n - 1 do
        for v = 0 to n - 1 do
          check_bool "interval containment = dominates" true
            ((pre.(d) <= pre.(v) && post.(v) <= post.(d))
            = Dominators.dominates dom d v)
        done
      done)
    (family_graphs ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_graph"
    [ ( "bitset",
        [ Alcotest.test_case "basic add/remove/mem" `Quick test_bitset_basic;
          Alcotest.test_case "bounds checking" `Quick test_bitset_bounds;
          Alcotest.test_case "fill and clear" `Quick test_bitset_fill_clear;
          Alcotest.test_case "fill at word boundary" `Quick
            test_bitset_fill_word_boundary;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "choose/fold/quantifiers" `Quick test_bitset_choose_fold;
          Alcotest.test_case "subset/disjoint early exit" `Quick
            test_bitset_subset_early_exit;
          Alcotest.test_case "for_all/exists early exit" `Quick
            test_bitset_quantifier_early_exit;
          qt union_many_agrees;
          qt bitset_model_prop;
          qt bitset_iter_prop ] );
      ( "digraph",
        [ Alcotest.test_case "build and query" `Quick test_digraph_build;
          Alcotest.test_case "idempotent add_edge" `Quick test_digraph_idempotent_add;
          Alcotest.test_case "remove_edge" `Quick test_digraph_remove;
          Alcotest.test_case "edge to unknown node" `Quick test_digraph_bad_edge;
          Alcotest.test_case "transpose" `Quick test_digraph_transpose;
          QCheck_alcotest.to_alcotest transpose_matches_edge_by_edge;
          Alcotest.test_case "induced subgraph" `Quick test_digraph_induced;
          Alcotest.test_case "induced rejects duplicates" `Quick
            test_digraph_induced_dup;
          Alcotest.test_case "copy is independent" `Quick test_digraph_copy_isolated ] );
      ( "algo",
        [ Alcotest.test_case "topological sort" `Quick test_topo_diamond;
          Alcotest.test_case "cycle detection" `Quick test_topo_cycle;
          Alcotest.test_case "self loop" `Quick test_self_loop_cycle;
          Alcotest.test_case "bfs and reachable sets" `Quick test_bfs;
          Alcotest.test_case "sources and sinks" `Quick test_sources_sinks;
          Alcotest.test_case "tarjan scc + condensation" `Quick test_scc;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "postorder covers all" `Quick
            test_dfs_postorder_covers_all;
          Alcotest.test_case "deep chain is stack safe" `Slow
            test_deep_chain_no_overflow;
          qt topo_respects_edges;
          qt scc_condensation_is_dag ] );
      ( "reach",
        [ Alcotest.test_case "diamond closure" `Quick test_reach_diamond;
          Alcotest.test_case "cyclic closure" `Quick test_reach_cyclic;
          Alcotest.test_case "set queries" `Quick test_reach_set_queries;
          Alcotest.test_case "descendants are caller-owned" `Quick
            test_reach_descendants_owned;
          Alcotest.test_case "concurrent ancestor queries" `Quick
            test_reach_domain_safe;
          qt ancestors_agree;
          qt reach_agrees_with_bfs ] );
      ( "dominators",
        [ Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "multiple sources" `Quick test_dominators_multi_source;
          Alcotest.test_case "chain" `Quick test_dominators_chain;
          Alcotest.test_case "cycles rejected" `Quick test_dominators_cycle_rejected;
          Alcotest.test_case "single-entry chain regression" `Quick
            test_dominators_single_entry_chain;
          Alcotest.test_case "idom is the deepest dominator (families)" `Quick
            test_idom_deepest_dominator;
          Alcotest.test_case "tree intervals = dominates (families)" `Quick
            test_tree_intervals_agree;
          qt prop_dominators_definition ] );
      ( "dot",
        [ Alcotest.test_case "render with clusters" `Quick test_dot_output;
          Alcotest.test_case "escaping" `Quick test_dot_escape ] ) ]
