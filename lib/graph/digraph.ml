(* Adjacency is kept as reversed insertion-order lists and exposed in
   insertion order. Node identifiers are dense, so plain arrays (grown by
   doubling) back both directions. *)

type t = {
  mutable n : int;
  mutable m : int;
  mutable succ : int list array;
  mutable pred : int list array;
}

let create ?(initial_capacity = 16) () =
  let cap = max initial_capacity 1 in
  { n = 0; m = 0; succ = Array.make cap []; pred = Array.make cap [] }

let grow g needed =
  let cap = Array.length g.succ in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let succ' = Array.make cap' [] and pred' = Array.make cap' [] in
    Array.blit g.succ 0 succ' 0 g.n;
    Array.blit g.pred 0 pred' 0 g.n;
    g.succ <- succ';
    g.pred <- pred'
  end

let add_node g =
  grow g (g.n + 1);
  let id = g.n in
  g.n <- id + 1;
  id

let add_nodes g k =
  if k < 0 then invalid_arg "Digraph.add_nodes: negative count";
  grow g (g.n + k);
  g.n <- g.n + k

let check g v name =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Digraph.%s: unknown node %d" name v)

let mem_edge g u v =
  check g u "mem_edge";
  check g v "mem_edge";
  List.mem v g.succ.(u)

let add_edge g u v =
  check g u "add_edge";
  check g v "add_edge";
  if not (List.mem v g.succ.(u)) then begin
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.m <- g.m + 1
  end

let remove_edge g u v =
  check g u "remove_edge";
  check g v "remove_edge";
  if List.mem v g.succ.(u) then begin
    g.succ.(u) <- List.filter (fun w -> w <> v) g.succ.(u);
    g.pred.(v) <- List.filter (fun w -> w <> u) g.pred.(v);
    g.m <- g.m - 1
  end

let n_nodes g = g.n

let n_edges g = g.m

let succ g u =
  check g u "succ";
  List.rev g.succ.(u)

let pred g v =
  check g v "pred";
  List.rev g.pred.(v)

let iter_succ f g u =
  check g u "iter_succ";
  List.iter f g.succ.(u)

let iter_pred f g v =
  check g v "iter_pred";
  List.iter f g.pred.(v)

let out_degree g u =
  check g u "out_degree";
  List.length g.succ.(u)

let in_degree g v =
  check g v "in_degree";
  List.length g.pred.(v)

let iter_nodes f g =
  for v = 0 to g.n - 1 do
    f v
  done

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) (List.rev g.succ.(u))
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let copy g =
  { g with succ = Array.copy g.succ; pred = Array.copy g.pred }

(* The edges of [g] are distinct, so each reversed edge is consed straight
   onto its lists, in [iter_edges] order, with no duplicate test: [u]'s
   predecessors in [t] are its successors in [g], list for list. *)
let transpose g =
  let t = create ~initial_capacity:g.n () in
  add_nodes t g.n;
  for u = 0 to g.n - 1 do
    List.iter (fun v -> t.succ.(v) <- u :: t.succ.(v)) g.succ.(u);
    t.pred.(u) <- g.succ.(u)
  done;
  t.m <- g.m;
  t

let of_edges ~n edges =
  let g = create ~initial_capacity:n () in
  add_nodes g n;
  List.iter (fun (u, v) -> add_edge g u v) edges;
  g

let induced g nodes =
  let order = Array.of_list nodes in
  let renumber = Hashtbl.create (Array.length order) in
  Array.iteri
    (fun fresh original ->
      check g original "induced";
      if Hashtbl.mem renumber original then
        invalid_arg "Digraph.induced: duplicate node";
      Hashtbl.add renumber original fresh)
    order;
  let sub = create ~initial_capacity:(Array.length order) () in
  add_nodes sub (Array.length order);
  Array.iteri
    (fun fresh original ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt renumber v with
          | Some fresh_v -> add_edge sub fresh fresh_v
          | None -> ())
        (List.rev g.succ.(original)))
    order;
  (sub, order)

let equal a b =
  a.n = b.n
  && a.m = b.m
  && (let same = ref true in
      for u = 0 to a.n - 1 do
        let sa = List.sort compare a.succ.(u)
        and sb = List.sort compare b.succ.(u) in
        if sa <> sb then same := false
      done;
      !same)

let pp ppf g =
  Format.fprintf ppf "digraph(%d nodes:" g.n;
  iter_edges (fun u v -> Format.fprintf ppf " %d->%d" u v) g;
  Format.fprintf ppf ")"
