(** The Workflow View Validator (paper §2.1).

    Implements Definitions 2.2 and 2.3 and the Proposition 2.1 validator: a
    view is sound iff every composite task is sound, where a composite T is
    sound iff every task of [T.in] reaches every task of [T.out] in the
    workflow specification. Reachability is reflexive and may pass through
    tasks outside T.

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

val subset_sound : Spec.t -> Wolves_graph.Bitset.t -> bool
(** Is the subset sound as a composite task (Def 2.3)? Singletons and the
    full task set are always sound. Probes the spec's closure
    ([Spec.reach]). *)

val subset_witnesses :
  Spec.t -> Wolves_graph.Bitset.t -> (Spec.task * Spec.task) list
(** The violating pairs: [(ti, to)] with [ti ∈ in], [to ∈ out] and no path
    [ti ⇝ to]. Empty iff the subset is sound. *)

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

val classify_unsound : Spec.t -> Wolves_graph.Bitset.t -> unsoundness_kind option
(** [None] when the subset is sound. Lanes are the weakly-connected
    components of the member-induced reachability relation. *)

val minimal_unsound_core : Spec.t -> Wolves_graph.Bitset.t -> Wolves_graph.Bitset.t option
(** A minimal unsound subset of the given set: every task of the result is
    necessary (removing any one makes it sound). [None] when the input is
    already sound. Deletion-greedy, O(n²) soundness checks; the core is what
    the CLI shows users as the {e explanation} of an unsound composite. *)

val composite_io : View.t -> View.composite -> io

val composite_sound : View.t -> View.composite -> bool

val composite_witnesses :
  View.t -> View.composite -> (Spec.task * Spec.task) list

(** Result of validating a whole view. *)
type report = {
  view : View.t;
  unsound : (View.composite * (Spec.task * Spec.task) list) list;
      (** Unsound composites with their violating pairs, by composite id. *)
}

val validate : ?domains:int -> View.t -> report
(** Check every composite (Proposition 2.1). Polynomial: one reachability
    index build plus O(Σ |T.in|·|T.out|) probes.

    Composite checks are independent, so with [domains] above 1 (default
    [Wolves_par.Par.default_domains]) they are farmed across a domain pool:
    the closure is forced up front, workers record their metrics straight
    into the shared registry (counter totals match the sequential run), and
    the report is identical to the sequential one at every domain count. *)

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
