(** The Unsound View Corrector (paper §2.2).

    Resolves an unsound composite task by splitting it into sound composite
    tasks. Three criteria, as in the demo:

    - {b Weak local optimality} (Def 2.5): no two parts of the result can be
      merged into a sound task. Polynomial greedy pair merging.
    - {b Strong local optimality} (Def 2.6): no subset of parts can be merged
      into a sound task. Polynomial seeded-closure subset search on top of the
      weak result (reconstruction of the paper's O(n³) algorithm, see
      DESIGN.md). The search is complete within its branch budget, so its
      final round is also the proof that the result is strongly local
      optimal.
    - {b Optimality}: minimum number of sound parts (Theorem 2.2: NP-hard),
      via an exact O(3ⁿ) dynamic program over subsets, practical to n ≈ 18.

    All splits are partitions of the composite's members; every part is sound
    by construction. Soundness of a part is evaluated against the whole
    workflow (tasks outside the part — whether in sibling parts, other
    composites, or elsewhere — are "outside" per Def 2.2).

    Each split builds one {!Soundness.Frame} over the composite's members
    and decides every subset of them on it, with word operations and no
    allocation. Only the anytime branch-and-bound's final checks go through
    {!Soundness.subset_sound}, which builds a frame per part.

    The exponential reference checks of Defs 2.5–2.6 (valid split, weak
    and strong local optimality by enumeration) live with the tests, on
    an independent list-based Def 2.3 check, not here. *)

open Wolves_workflow

type criterion =
  | Weak
  | Strong
  | Optimal

val pp_criterion : Format.formatter -> criterion -> unit

val criterion_of_string : string -> criterion option
(** Accepts ["weak"], ["strong"], ["optimal"]. *)

(** Result of splitting one composite. *)
type outcome = {
  parts : Spec.task list list;
      (** The resulting partition; parts ordered by smallest member, members
          increasing. A sound input composite yields a single part. *)
  checks : int;
      (** Subset-soundness evaluations (Def 2.3) performed, counted once
          each, whether on the split's {!Soundness.Frame} or through
          {!Soundness.subset_sound}: the unit of the paper's complexity
          claims and the dominant cost. Cheaper auxiliary evaluations are
          counted under {!field-probes} and never inflate this number. *)
  probes : int;
      (** Auxiliary soundness evaluations that are {e not} full
          subset-soundness checks: the anytime branch-and-bound's partial
          pruning probes and the optimal DP's bit-parallel mask
          evaluations. *)
  certified_strong : bool;
      (** [true] when the result is proven strongly local optimal (Def 2.6):
          a sound composite left whole, a proven minimum ([Optimal], a
          completed anytime or deadline search), or a strong split whose
          final closure round found no combinable parts without any seed
          running out of [branch_budget]. That round is complete, so the
          proof holds however many parts the split has. A final round that
          exhausted a budget leaves the split uncertified, and so does a
          [Weak] split of an unsound composite. *)
}

(** Tuning knobs; {!default_config} suits tests and benches. *)
type config = {
  branch_budget : int;
      (** Extra branch points the strong closure search may explore per seed
          (forced repairs are free). Default 64. A search that runs out of
          it may miss a combinable subset; the parts stay sound, and the
          split reads uncertified if that happens in its final round. *)
  optimal_max_tasks : int;
      (** [Optimal] refuses composites larger than this (the DP is
          exponential). Default 18; at most {!Soundness.Frame.max_parts}
          (61), so that its 2^limit masks fit a non-negative int; every
          function taking a config raises [Invalid_argument] naming the
          field otherwise. *)
}

val default_config : config

val split_subset :
  ?config:config -> criterion -> Spec.t -> Spec.task list -> outcome
(** Split an arbitrary task subset (typically the members of one composite).
    @raise Invalid_argument when the subset is empty, contains duplicates, or
    ([Optimal]) exceeds [optimal_max_tasks], or when [optimal_max_tasks] is
    past the mask width. *)

val split_subset_anytime :
  ?config:config ->
  ?node_budget:int ->
  Spec.t ->
  Spec.task list ->
  outcome * bool
(** Exact minimum split by branch-and-bound over topological-order
    assignments, for composites beyond [optimal_max_tasks]. Starts from the
    strong corrector's split as the incumbent, explores at most
    [node_budget] search nodes (default [2_000_000]) and returns the best
    split found plus a flag: [true] when the search completed and the split
    is {e proven} minimum, [false] when the budget ran out (the result is
    then still a valid sound split, no worse than the strong corrector's).

    Pruning exploits the assignment order: once a task is placed, its
    membership of the part's in set is final (all suppliers precede it), so
    any part with an unreachable (final input, final output) pair can never
    become sound and the branch is cut. *)

(** Result of a deadline-bounded correction (see {!with_deadline}). *)
type tier_outcome = {
  result : outcome;
      (** The returned split; always sound, at worst the weak corrector's.
          Its counters include the work of abandoned tiers. *)
  tier : criterion;
      (** The guarantee level actually delivered: the highest tier whose
          search ran to completion. *)
  elapsed_s : float;  (** wall-clock seconds actually spent *)
  abandoned : criterion option;
      (** The tier whose search the deadline interrupted, if any ([Strong]
          when even the strong refinement was cut, [Optimal] when only the
          exact search was). *)
  proven_optimal : bool;
      (** [true] iff the exact search completed, proving the split minimum. *)
}

val pp_tier_outcome : Format.formatter -> tier_outcome -> unit
(** One-line rendering: tier, part count, elapsed ms, abandoned tier. *)

val default_check_cost_s : float
(** Modeled cost of one full soundness check: [1e-4] (100 µs), roughly a
    closure-matrix soundness query over a workflow of the scale the paper's
    WfMS deployments manage. *)

val with_deadline :
  ?config:config ->
  ?node_budget:int ->
  ?check_cost_s:float ->
  ?spent_s:float ->
  deadline_s:float ->
  Spec.t ->
  Spec.task list ->
  tier_outcome
(** Deadline-degrading correction chain: weak → strong → optimal, each tier
    improving on the previous, stopping (between soundness checks / search
    nodes) once the budget of [deadline_s] seconds is consumed. The budget
    is consumed by the {e larger} of wall-clock time and the modeled cost of
    the soundness checks performed ([checks × check_cost_s]): the modeled
    component makes degradation deterministic across machines — on the
    repo's gadget-sized inputs every tier finishes in microseconds, so a
    pure wall-clock deadline would be a hardware lottery — while the
    wall-clock component keeps the deadline honest on instances big enough
    for real time to dominate.

    The weak tier always runs to completion — it is the floor, so the
    answer is always a valid sound split — and with [deadline_s = 0.] it is
    also the answer. With a generous deadline the chain behaves exactly
    like {!split_subset_anytime} (the optimal tier still honours
    [node_budget]).

    [spent_s] (default [0.]) pre-charges the budget with time the caller
    already spent on the request's behalf before correction started — a
    query service passes its admission-queue wait here so a request that
    queued long degrades to a cheaper tier instead of overstaying its
    deadline. The weak floor is unaffected: it runs even with
    [spent_s >= deadline_s]. @raise Invalid_argument as {!split_subset},
    or when [spent_s] is negative. *)

val correct_with_deadline :
  ?config:config ->
  ?node_budget:int ->
  ?check_cost_s:float ->
  ?spent_s:float ->
  deadline_s:float ->
  View.t ->
  View.t * (View.composite * tier_outcome) list
(** {!correct} under one shared deadline: each unsound composite gets the
    budget remaining when its turn comes (possibly zero — the weak floor
    still answers). [spent_s] is charged against the shared budget up
    front, as in {!with_deadline}. The returned view is sound. *)

val split_composite :
  ?config:config -> criterion -> View.t -> View.composite -> View.t * outcome
(** The demo's "Split Task" action: replace one composite by its split. The
    new composites inherit the composite's name with [/0], [/1]... suffixes. *)

val correct :
  ?config:config ->
  ?domains:int ->
  criterion ->
  View.t ->
  View.t * (View.composite * outcome) list
(** The demo's "Correct View" action: split every unsound composite of the
    view. The returned view is sound; the association list maps each corrected
    composite (id in the {e input} view) to its outcome.

    With [domains] above 1 (default [Wolves_par.Par.default_domains]) the
    independent composite splits are farmed across a domain pool, workers
    recording their metrics straight into the shared registry, and the
    corrected view and outcome list are identical to the sequential run at
    every domain count. *)

val combinable : Spec.t -> Spec.task list -> Spec.task list -> bool
(** Def 2.4: can the two disjoint task sets be merged into a sound composite
    task? *)

val merge_resolve : View.t -> View.composite -> View.t * View.composite
(** Extension (the paper's open problem, §"significance"): resolve an unsound
    composite by {e merging} it with other composites of the view instead of
    splitting it. Greedy closure absorbing the composites that supply unmet
    inputs or consume unmet outputs, preferring the cheaper side; terminates
    (the whole-workflow composite is always sound). Returns the new view and
    the id of the merged composite in it. Loses information: the merged
    composite is larger. *)

(** One decision of the mixed resolver. *)
type decision = {
  composite : string;  (** name of the unsound composite in the view at the
                           time of the decision *)
  action : [ `Split of int  (** number of resulting parts *)
           | `Merge of int  (** number of composites absorbed *) ];
}

val pp_decision : Format.formatter -> decision -> unit

val resolve_auto :
  ?config:config -> View.t -> View.t * decision list
(** The paper's open problem ("allowing view abstraction by task merging,
    and the interaction between splitting and merging"): resolve each
    unsound composite by whichever of splitting (strong criterion) or
    merging is cheaper, where splitting costs the extra composites it
    creates and merging costs the tasks it hides inside the bigger
    composite. Ties prefer splitting (information-preserving). The result is
    sound; decisions are reported in application order. *)
