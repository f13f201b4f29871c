(** The reachability index: reflexive–transitive closure of a {!Digraph}.

    The closure is materialised as one {!Bitset} row of descendants per node,
    computed in reverse topological order for DAGs and via the SCC
    condensation for general graphs, so construction costs O(V·E/w) word
    operations. This is the workhorse behind the soundness validator and the
    correctors, which probe [reaches] heavily.

    Construction is domain-parallel when [Wolves_par.Par.default_domains]
    is above 1: the rows of each longest-path level set are filled
    concurrently with cache-blocked union kernels, and the result is
    byte-identical to the sequential build at every domain count (each row
    is a union over the node's successors, which is order-independent).

    Ancestor rows are built eagerly alongside the descendant rows, by the
    same kernel run over the reversed graph, so an ancestor query is a
    single row read. A built index is immutable: any number of domains may
    query it concurrently without forcing or pinning anything first. *)

type t

val compute : Digraph.t -> t
(** Build the closure of the given graph and of its transpose (cyclic
    graphs allowed). *)

val graph_size : t -> int
(** Number of nodes of the indexed graph. *)

val equal : t -> t -> bool
(** Row-for-row equality of two closures over same-sized graphs, ancestor
    rows included — the check behind "parallel construction is
    byte-identical to sequential". *)

val reaches : t -> int -> int -> bool
(** [reaches r u v] is [true] iff there is a (possibly empty) directed path
    from [u] to [v]. Reflexive: [reaches r v v = true]. *)

val row_subset : t -> Bitset.t -> int -> bool
(** [row_subset r set v]: is every member of [set] reachable from [v]? One
    subset test against the internal descendant row — no copy, but the scan
    runs over all of [set]'s words (O(n/w)) even when [set] is sparse. *)

val descendants : t -> int -> Bitset.t
(** The set of nodes reachable from a node, as a {e fresh} set the caller
    owns and may mutate freely. Reflexive, like {!reaches}:
    [descendants r v] always contains [v] itself, even for isolated nodes —
    callers wanting strict (proper) descendants must remove it.

    (The index's internal rows are shared between the nodes of a strongly
    connected component, which is why this hands out a copy: mutating a
    live row would corrupt [reaches] for every sibling node. Hot paths
    that only need to accumulate a row should use
    {!union_descendants_into} and skip the copy.) *)

val union_descendants_into : t -> into:Bitset.t -> int -> unit
(** [union_descendants_into r ~into v] adds every descendant of [v]
    (including [v]) to [into] without materialising an intermediate copy —
    the allocation-free accessor for hot accumulation loops. *)

val restrict : t -> int array -> int array
(** [restrict r nodes] is the closure among [nodes], renumbered by
    position, as a packed bit matrix (the {!Bitset.gather_into} layout):
    row [i] is the [w = ⌈k / 63⌉] words from word [i·w], and bit [j] of it
    is set iff [reaches r nodes.(i) nodes.(j)], where [k] is the number of
    nodes. One gather per row, straight from the descendant row's words:
    k² word probes in all. *)

val ancestors : t -> int -> Bitset.t
(** The set of nodes reaching a node (fresh set, caller-owned). Reflexive
    like {!descendants}: [ancestors r v] always contains [v] itself.
    One O(n/w) copy of the node's ancestor row. *)

val ancestors_of_set : t -> Bitset.t -> Bitset.t
(** Union of [ancestors] over a set of nodes (cache-blocked union over the
    ancestor rows). *)

val descendants_of_set : t -> Bitset.t -> Bitset.t
(** Union of [descendants] over a set of nodes. *)

val n_closure_edges : t -> int
(** Total number of ordered reachable pairs, reflexive pairs included; the
    size of the materialised provenance relation. *)
