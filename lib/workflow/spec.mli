(** Workflow specifications: named atomic tasks and data dependencies.

    A specification is an immutable DAG built through {!Builder}. Tasks are
    identified externally by unique names and internally by dense integers
    [0 .. n_tasks - 1] (allocation order), which index directly into the graph
    substrate. *)

type task = int
(** Internal task identifier. *)

type t

type error =
  | Duplicate_task of string
  | Unknown_task of string
  | Self_dependency of string
  | Cyclic of string list
      (** Tasks forming a dependency cycle, in cycle order. *)

val pp_error : Format.formatter -> error -> unit

exception Spec_error of error
(** Raised by the [_exn] conveniences. *)

(** Incremental construction of a specification. *)
module Builder : sig
  type spec := t

  type t

  val create : ?name:string -> unit -> t
  (** A builder for a workflow called [name] (default ["workflow"]). *)

  val add_task : t -> string -> (task, error) result
  (** Declare a task. Fails with [Duplicate_task] on a reused name. *)

  val add_task_exn : t -> string -> task

  val set_attr : t -> string -> key:string -> string -> (unit, error) result
  (** Attach (or overwrite) a metadata attribute on a declared task —
      durations, memory hints, actor classes... Attributes are carried
      through every serialisation format. Fails with [Unknown_task]. *)

  val set_attr_exn : t -> string -> key:string -> string -> unit

  val add_dependency : t -> string -> string -> (unit, error) result
  (** [add_dependency b producer consumer] records the dataflow edge
      [producer -> consumer]; idempotent. Fails with [Unknown_task] or
      [Self_dependency]. *)

  val add_dependency_exn : t -> string -> string -> unit

  val annotate :
    t -> string -> output:string -> string list -> (unit, error) result
  (** [annotate b task ~output inputs] records one dependency-annotation
      entry on [task]: the data it sends to [output] (an output channel,
      named by its consumer task) depends on exactly the data received from
      [inputs] (input channels, named by producer tasks). An empty [inputs]
      list means the output is generated from none of the task's inputs.
      Entries accumulate in declaration order, duplicates included.

      All names must be declared tasks ([Unknown_task] otherwise), but
      {e neighbourliness is deliberately not enforced}: an entry may name a
      non-consumer output or non-producer input, which the analysis layer
      reports as [spec/annotation-inconsistent] instead of construction
      failing. Tasks carrying no entry for some output are treated by the
      analyses as depending on {e all} inputs (the safe default). *)

  val annotate_exn : t -> string -> output:string -> string list -> unit

  val finish : t -> (spec, error) result
  (** Freeze the builder. Fails with [Cyclic] when the dependencies contain a
      cycle. The builder may keep being extended afterwards; the frozen
      specification is unaffected. *)

  val finish_exn : t -> spec
end

val of_tasks :
  name:string -> string list -> (string * string) list -> (t, error) result
(** [of_tasks ~name tasks deps] builds a specification in one call; [deps]
    are (producer, consumer) name pairs. *)

val of_tasks_exn :
  name:string -> string list -> (string * string) list -> t

val name : t -> string

val n_tasks : t -> int

val n_dependencies : t -> int

val task_name : t -> task -> string
(** @raise Invalid_argument on an out-of-range identifier. *)

val task_of_name : t -> string -> task option

val task_of_name_exn : t -> string -> task
(** @raise Error ([Unknown_task]) when absent. *)

val tasks : t -> task list
(** All task identifiers, increasing. *)

val graph : t -> Wolves_graph.Digraph.t
(** The dependency graph (do not mutate: shared with the specification). *)

val producers : t -> task -> task list
(** Direct predecessors. *)

val consumers : t -> task -> task list
(** Direct successors. *)

val attr : t -> task -> string -> string option
(** A task's metadata attribute, if set. *)

val attrs : t -> task -> (string * string) list
(** All attributes of a task, sorted by key. The lists are built once, when
    the builder finishes, so a call costs nothing per other task. *)

val float_attr : t -> task -> string -> float option
(** [attr] parsed as a float ([None] when missing or unparseable). *)

val reach : t -> Wolves_graph.Reach.t
(** The reflexive–transitive closure of the dependency graph, computed once
    and cached. *)

val depends : t -> task -> task -> bool
(** [depends spec upstream downstream]: is there a (possibly empty)
    dependency path? *)

val annotation : t -> task -> (task * task list) list option
(** A task's dependency-annotation entries (output consumer, input
    producers), in declaration order — [None] when the task carries no
    annotation at all (distinct from [Some []]). See {!Builder.annotate}
    for the semantics. *)

val annotated_tasks : t -> task list
(** Tasks carrying at least one annotation entry, increasing id order. *)

val has_annotations : t -> bool

val topological_order : t -> task list

val pp : Format.formatter -> t -> unit
(** One-line summary: name, task and edge counts. *)
