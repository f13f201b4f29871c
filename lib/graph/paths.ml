let find_path g source target =
  let n = Digraph.n_nodes g in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Paths.find_path: unknown node";
  if source = target then Some [ source ]
  else begin
    let parent = Array.make n (-1) in
    let seen = Bitset.create n in
    Bitset.add seen source;
    let queue = Queue.create () in
    Queue.add source queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun w ->
          if not (Bitset.mem seen w) then begin
            Bitset.add seen w;
            parent.(w) <- v;
            if w = target then found := true else Queue.add w queue
          end)
        (Digraph.succ g v)
    done;
    if not !found then None
    else begin
      let rec build v acc =
        if v = source then v :: acc else build parent.(v) (v :: acc)
      in
      Some (build target [])
    end
  end
