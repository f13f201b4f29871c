(** Parametric instance families exhibiting the hardness landscape of view
    correction (Theorem 2.2: minimal splitting is NP-hard).

    Each generator returns a specification together with the member list of a
    single unsound composite whose optimal split size is known analytically,
    so tests and the E-QUAL / E-TIME benches can measure algorithm quality and
    the exponential cost of exact correction against ground truth. *)

open Wolves_workflow

val blocks_instance : blocks:int -> chains:int -> Spec.t * Spec.task list
(** The Figure 3 family, generalised: [blocks] independent complete-bipartite
    2×2 blocks ({c,d} → {f,g}, entries fed from the source, exits feeding the
    sink) plus [chains] independent 2-task chains, all inside one composite.

    Ground truth: optimal (= strong local optimal) split has
    [blocks + chains] parts; every weakly local optimal split that cannot
    merge subsets has [4·blocks + chains]. @raise Invalid_argument unless
    [blocks + chains >= 2] (with fewer units the composite is already sound
    and there is nothing to split). *)

val blocks_optimal_parts : blocks:int -> chains:int -> int

val blocks_weak_parts : blocks:int -> chains:int -> int

val wide_block_instance : width:int -> Spec.t * Spec.task list
(** One complete bipartite [width]×[width] block (entries c₁..c_k each feed
    every exit f₁..f_k) plus one independent 2-task chain that makes the
    composite unsound. No two block tasks are pairwise combinable (weak local
    optimum = [2·width + 1] parts) but the whole block merges into a single
    sound composite (optimal = 2 parts) — the widest possible weak/strong
    quality gap, growing linearly with [width].
    @raise Invalid_argument when [width < 2] (a 1-wide block is a plain
    chain that even the weak corrector keeps whole). Random unsound
    instances (no analytic optimum) are provided by [Wolves_workload]. *)

val wide_block_weak_parts : width:int -> int

val wide_block_optimal_parts : width:int -> int

type gap = {
  gap_spec : Spec.t;
  gap_members : Spec.task list;
  strong_parts : int;
  optimal_parts : int;
}
(** An instance where the (certified) strong local optimal split has more
    parts than the true minimum — evidence that strong local optimality is
    weaker than optimality, which must occasionally happen unless P = NP. *)

val strong_gap_instance : unit -> Spec.t * Spec.task list
(** The minimal known separation of strong local optimality from optimality
    (found by exhaustive search over 4-member instances; pinned as a
    regression): members a, b, c, d with edges a→b, a→c, b→c, context
    s→b, b→t, d→t.

    The greedy pass merges [{a,d}] first — both are input-less, so the pair
    is {e vacuously} sound — and gets stuck at [{a,d}, {b}, {c}] (3 parts):
    no pair and no subset of these parts is combinable, so the split is
    certified strongly local optimal. Proving that takes one two-sided
    branch of the closure search, so at [branch_budget = 0] the same split
    reads uncertified. The true minimum is
    [{a,b,c}, {d}] (2 parts: in = out = {b}), which is {e not a coarsening}
    of the greedy split — reaching it requires re-partitioning, which is
    exactly the operation local optimality does not license. *)

val search_strong_gap :
  ?tries:int -> ?size:int -> ?members:int -> seed:int -> unit -> gap option
(** Random search (default 2000 tries over 18-task Erdős–Rényi workflows
    with 10-member composites) for a strong-vs-optimal gap. Deterministic in
    [seed]. Used by the test-suite to characterise how often the polynomial
    corrector actually loses — on these distributions, gaps are rare or
    absent; see EXPERIMENTS.md (E-QUAL). *)
