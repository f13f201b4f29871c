(** MoML import/export (demo §3.2: "A user may load into the system a
    workflow specification and a pre-defined workflow view defined in
    Modeling Markup Language (MOML)").

    The dialect is the Ptolemy II / Kepler structural subset:

    - the root [<entity>] is the workflow;
    - a nested [<entity>] containing further entities is a composite task of
      the view; its children are atomic tasks;
    - a childless [<entity>] directly under the root is an atomic task in a
      singleton composite;
    - dataflow is [<relation name="…"/>] plus two [<link port="…"
      relation="…"/>] elements per dependency, ports written
      [task name.out] / [task name.in];
    - [<property>] elements and [class] attributes are accepted and ignored
      (they carry actor configuration, irrelevant to view soundness).

    One document therefore carries both the specification and the view, and
    [of_string ∘ to_string] is the identity on (specification, partition). *)

open Wolves_workflow

type error =
  | Xml of Wolves_xml.Parse.error
  | Structure of string
      (** malformed MoML: nesting too deep, dangling link, bad port, ... *)
  | Spec_error of Spec.error
  | View_error of View.error

val pp_error : Format.formatter -> error -> unit

val of_string : string -> (Spec.t * View.t, error) result
(** Parse a MoML document into a specification and its view.

    One pass of {!Wolves_xml.Parse.scan}, with no text and no tree: it keeps
    only the elements MoML gives a meaning to (the root's entities, their
    entities, ports and properties, relations, links). The structure checks
    then run over those records in a fixed order, after the whole document
    is known to be well formed: the root, each top-level entity in turn
    (nesting, then each task's ports, then its properties), relations,
    links, relation endpoints. XML errors therefore come first and
    specification and view errors last. *)

val to_string : View.t -> string
(** Serialise a view (with its specification) as MoML. Every composite is
    written as a nested entity, singletons included, so names round-trip. *)

val spec_to_string : Spec.t -> string
(** Serialise a bare specification (flat entities; parses back to the
    singleton view). *)

val load : string -> (Spec.t * View.t, error) result
(** Read and parse a file. I/O failures are reported as [Structure]. *)

val save : string -> View.t -> (unit, error) result
(** Write [to_string] to a file. *)
