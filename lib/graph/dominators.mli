(** Dominator trees over DAGs with a virtual root/sink.

    Node [d] dominates [v] when every path from the (virtual) root to [v]
    passes through [d]. WOLVES uses dominators and their duals
    (postdominators, computed on the transposed graph) to detect fork–join
    regions: a fork [f] and the join [j] that postdominates all its branches
    bound a single-entry/single-exit region, which is a sound composite by
    construction (see [Wolves_core.Suggest]).

    The graph may have several sources/sinks; a virtual root preceding every
    source (resp. virtual sink following every sink) is added internally.
    Cyclic graphs are rejected. *)

type t

val compute : Digraph.t -> t
(** Dominators from the virtual root. @raise Invalid_argument on a cyclic
    graph. *)

val compute_post : Digraph.t -> t
(** Postdominators (dominators of the transposed graph from the virtual
    sink). *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for nodes whose only dominator is the
    virtual root. *)

val dominates : t -> int -> int -> bool
(** [dominates t d v]: does [d] dominate [v]? Reflexive. *)

val tree_intervals : t -> int array * int array
(** [(pre, post)] DFS numbers of the dominator tree, excluding the virtual
    root: [d] dominates [v] iff [pre.(d) <= pre.(v) && post.(v) <= post.(d)]
    — the O(1) form of {!dominates} for callers that test many pairs. *)

val common : t -> int list -> int option
(** The nearest common dominator of a non-empty node list; [None] when it is
    the virtual root. *)
