(** The Workflow View Validator (paper §2.1).

    Implements Definitions 2.2 and 2.3 and the Proposition 2.1 validator: a
    view is sound iff every composite task is sound, where a composite T is
    sound iff every task of [T.in] reaches every task of [T.out] in the
    workflow specification. Reachability is reflexive and may pass through
    tasks outside T.

    Every Def 2.3 decision in this module, and in the correctors and the
    linter built on it, runs on one kernel: a {!Frame} over the member set.

    The literal Definition 2.1 ("a path between composites exists in the view
    iff a member-level witness path exists") is provided separately as
    {!preserves_paths}; "all composites sound" implies it, but not conversely
    (see {!Wolves_workflow.Examples.prop21_counterexample}). *)

open Wolves_workflow

type io = {
  inputs : Spec.task list;
      (** [T.in]: members receiving a dependency edge from outside T. *)
  outputs : Spec.task list;
      (** [T.out]: members sending a dependency edge outside T. *)
}

val subset_io : Spec.t -> Wolves_graph.Bitset.t -> io
(** [T.in]/[T.out] of an arbitrary task subset (Def 2.2), capacity =
    [Spec.n_tasks]. *)

(** {1 Member frames}

    A member frame decides Def 2.3 for many subsets of one task set M
    (typically a composite's members) with word operations. It renumbers the
    m members [0 .. m-1] in task order and keeps, packed in rows of
    [words = ⌈m/63⌉] words (the {!Wolves_graph.Bitset.gather_into} layout),
    the closure restricted to M, each member's predecessors and successors
    inside M, and the members with an edge from or to outside M. For U ⊆ M,
    in(U) = U ∩ (ext_in ∪ succ(M∖U)) and out(U) = U ∩ (ext_out ∪ pred(M∖U)),
    and U is sound iff every input's reach row covers out(U): O(|U|·words)
    word operations per check, with no allocation.

    The frame is the only Def 2.3 kernel: a single check builds one (O(m²)
    word probes, one gather per member row, plus O(deg·log m) per member),
    and a caller that checks one member set many times reuses it — the
    correctors' splits make up to hundreds of thousands of checks on
    subsets of one composite, and a minimal core shrinks on one frame.

    Each evaluation is counted in the metrics registry: {!Frame.sound} (and
    {!Frame.minimal_core}'s checks) under [soundness.subset_checks];
    {!Frame.first_witness}, {!Frame.witness_count} and {!Frame.witnesses}
    under [soundness.witness_scans]; each {!Frame.make} under
    [soundness.frames]. A frame owns two scratch rows, so it belongs to
    one call on one domain. *)
module Frame : sig
  type t = private {
    tasks : Spec.task array;  (** member [i] is [tasks.(i)]; increasing *)
    words : int;  (** words per row and per frame set *)
    reach : int array;
        (** row [i] (words [i·words ..]): the members member [i] reaches,
            itself included *)
    pred : int array;  (** row [i]: member [i]'s predecessors in M *)
    succ : int array;  (** row [i]: member [i]'s successors in M *)
    ext_in : int array;  (** one row: members with a predecessor outside M *)
    ext_out : int array;  (** one row: members with a successor outside M *)
    ins : int array;  (** scratch row of the checks; meaningless between them *)
    outs : int array;  (** scratch row of the checks *)
  }

  type set = int array
  (** A subset of the members, as one row of [words] words. *)

  val max_parts : int
  (** The widest mask an int holds with room to count it: [Sys.int_size - 2]
      (61), so [1 lsl max_parts] is still a non-negative int. *)

  val make : Spec.t -> Spec.task list -> t
  (** [make spec members], members increasing. One {!Wolves_graph.Reach.restrict}
      of the spec's closure plus one pass over the members' edges.
      @raise Invalid_argument when the members are not increasing tasks of
      the spec. *)

  val size : t -> int
  (** m, the number of members. *)

  val task : t -> int -> Spec.task
  (** The task of a member. *)

  val empty : t -> set

  val singleton : t -> int -> set

  val full : t -> set
  (** All of M. *)

  val union_into : into:set -> set -> unit

  val lowest : set -> int
  (** The smallest member, [max_int] for the empty set. *)

  val iter : (int -> unit) -> set -> unit
  (** Visit the set's members, increasing. *)

  val tasks : t -> set -> Spec.task list
  (** The set's tasks, increasing. *)

  val sound : t -> set -> bool
  (** Is the set sound as a composite task (Def 2.3)? The empty set and
      singletons are. No allocation. *)

  val first_witness : t -> set -> (int * int) option
  (** The head of {!witnesses}: the first input (in task order) missing
      some output, and the first output it misses. [None] iff the set is
      sound; only that answer is allocation-free. *)

  val witness_count : t -> set -> int
  (** The number of violating pairs: the sum over inputs x of
      popcount(out(U) ∖ reach(x)). 0 iff the set is sound. *)

  val witnesses : t -> set -> (int * int) list
  (** The violating pairs [(x, y)], as members: [x ∈ in], [y ∈ out] and no
      path [x ⇝ y]; inputs increasing, then outputs increasing. Empty iff
      the set is sound. *)

  val minimal_core : t -> set -> set option
  (** A 1-minimal unsound subset of the set: removing any one member makes
      it sound. [None] when the set is sound. Deletion-greedy: each pass
      tries dropping the members in increasing order, and passes repeat
      until one removes nothing — O(m²) checks, a few in practice. *)

  val lanes : t -> set -> int
  (** The weakly-connected components of the reachability relation among
      the set's members (two members are joined when one reaches the
      other, possibly through tasks outside the frame). *)

  val preds_outside : t -> int -> set -> int list option
  (** [preds_outside fr x u]: [None] when member [x] has a predecessor
      outside M, else its predecessors in M∖u, increasing. *)

  val succs_outside : t -> int -> set -> int list option
  (** The same for successors. *)
end

(** Structural class of an unsound composite — what kind of mistake the
    designer made. *)
type unsoundness_kind =
  | Parallel_lanes of int
      (** the members split into this many groups with no dataflow between
          them (grouping independent branches — the dominant repository
          mistake, cf. the lane stages of the Pegasus shapes) *)
  | Entangled
      (** members are dataflow-connected yet some input still cannot reach
          some output (crossing structure — the paper's Figure 3 pattern) *)

val pp_unsoundness_kind : Format.formatter -> unsoundness_kind -> unit

val kind_of_lanes : int -> unsoundness_kind
(** [Parallel_lanes k] for [k ≥ 2] lanes ({!Frame.lanes} of an unsound
    set), [Entangled] otherwise. *)

(** {1 Single checks}

    Each builds one {!Frame} over the given tasks and decides on it. *)

val subset_sound : Spec.t -> Wolves_graph.Bitset.t -> bool
(** Is the subset sound as a composite task (Def 2.3)? Singletons and the
    full task set are always sound. *)

val subset_witnesses :
  Spec.t -> Wolves_graph.Bitset.t -> (Spec.task * Spec.task) list
(** The violating pairs: [(ti, to)] with [ti ∈ in], [to ∈ out] and no path
    [ti ⇝ to], inputs increasing, then outputs increasing. Empty iff the
    subset is sound. *)

val classify_unsound : Spec.t -> Wolves_graph.Bitset.t -> unsoundness_kind option
(** [None] when the subset is sound, else the {!kind_of_lanes} of its
    {!Frame.lanes}. *)

val minimal_unsound_core : Spec.t -> Wolves_graph.Bitset.t -> Wolves_graph.Bitset.t option
(** {!Frame.minimal_core} of the set: every task of the result is necessary
    (removing any one makes it sound). [None] when the input is already
    sound. The core is what the CLI shows users as the {e explanation} of
    an unsound composite. *)

val composite_io : View.t -> View.composite -> io

val composite_sound : View.t -> View.composite -> bool

val composite_witnesses :
  View.t -> View.composite -> (Spec.task * Spec.task) list
(** {!subset_witnesses} of the composite's members: what the CLI prints
    for an unsound composite. *)

(** Result of validating a whole view. *)
type report = {
  view : View.t;
  unsound : (View.composite * int) list;
      (** Unsound composites with their numbers of violating pairs, by
          composite id; {!composite_witnesses} lists the pairs. *)
}

val validate : ?domains:int -> View.t -> report
(** Check every composite (Proposition 2.1). Polynomial: one reachability
    index build plus one {!Frame} and one {!Frame.witness_count} per
    composite of two or more members (singletons are sound), each
    O(m²) word probes for a composite of m members.

    Composite checks are independent, so they are farmed across the
    {!Wolves_par.Par} pool at [domains] (default
    [Wolves_par.Par.default_domains]; one domain runs them inline): the
    closure is forced up front, workers record their metrics straight
    into the shared registry (counter totals match the sequential run), and
    the report is identical at every domain count. *)

val is_sound : View.t -> bool

val pp_report : Format.formatter -> report -> unit
(** Human-readable report naming unsound composites and witnesses — the CLI
    equivalent of the demo GUI's red marking. *)

val preserves_paths : View.t -> bool
(** The literal Definition 2.1, decided with transitive closures (polynomial):
    for every pair of distinct composites, [T1 ⇝ T2] in the view iff some
    members satisfy [t1 ⇝ t2] in the workflow. Implied by {!is_sound}. *)

val naive_preserves_paths : ?fuel:int -> View.t -> bool option
(** Definition 2.1 decided the naive way the paper warns about (§2.1):
    enumerating simple paths in both graphs. Exponential; explores at most
    [fuel] path extensions (default [50_000_000]) and returns [None] when the
    budget is exhausted. Exists for the E-VALID benchmark and for
    differential testing of {!preserves_paths} on small inputs. *)
