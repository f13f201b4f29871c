(** Witness paths between nodes, as provenance explanations print them. *)

val find_path : Digraph.t -> int -> int -> int list option
(** Some directed path [u; ...; v] (node sequence, consecutive pairs are
    edges), or [None] when unreachable. [Some [u]] when [u = v]. BFS, so the
    path has the fewest edges. Works on cyclic graphs. *)
