(** Mutable directed graphs over dense integer node identifiers.

    Nodes are the integers [0 .. n_nodes g - 1]; [add_node] allocates the next
    identifier. Parallel edges are collapsed ([add_edge] is idempotent) and
    self-loops are permitted at this layer (the workflow layer forbids them).
    This is the substrate under workflow specifications, views, provenance
    graphs and the synthetic generators. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** A graph with no nodes. [initial_capacity] pre-sizes internal arrays. *)

val add_node : t -> int
(** Allocate a fresh node and return its identifier. *)

val add_nodes : t -> int -> unit
(** [add_nodes g k] allocates [k] fresh nodes. @raise Invalid_argument if
    [k < 0]. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the edge [u -> v]; a no-op when already present.
    @raise Invalid_argument if either endpoint is not a node of [g]. *)

val remove_edge : t -> int -> int -> unit
(** Remove the edge if present; a no-op otherwise. *)

val mem_edge : t -> int -> int -> bool

val n_nodes : t -> int

val n_edges : t -> int

val succ : t -> int -> int list
(** Successors of a node, in insertion order.
    @raise Invalid_argument on an unknown node. *)

val pred : t -> int -> int list
(** Predecessors of a node, in insertion order. *)

val iter_succ : (int -> unit) -> t -> int -> unit
(** Visit the successors of a node, most recently added first, without
    building a list (unlike {!succ}). *)

val iter_pred : (int -> unit) -> t -> int -> unit
(** Visit the predecessors of a node, most recently added first. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_nodes : (int -> unit) -> t -> unit

val iter_edges : (int -> int -> unit) -> t -> unit
(** Visit every edge [u -> v], grouped by source node. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val edges : t -> (int * int) list
(** Every edge, grouped by source node. *)

val copy : t -> t

val transpose : t -> t
(** The graph with every edge reversed, in O(n + m): the lists are those
    [add_edge] would build reversing the edges in {!iter_edges} order. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on nodes [0 .. n-1].
    @raise Invalid_argument on out-of-range endpoints. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (in the given order,
    which must be duplicate-free), with nodes renumbered [0 ..]; the returned
    array maps new identifiers back to the originals. *)

val equal : t -> t -> bool
(** Same node count and same edge set (insertion order ignored). *)

val pp : Format.formatter -> t -> unit
(** Compact rendering such as [digraph(4 nodes: 0->1 0->2 1->3)]. *)
