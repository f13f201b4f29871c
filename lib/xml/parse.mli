(** Parser for the XML subset of {!Ast}.

    One scanner walks the input once and reports what it finds to a
    {!consumer}: start tags with their attributes, end tags, and text runs.
    It keeps only a byte offset and tests prefixes in place. Tag names and
    text without references are sliced straight out of the input; attribute
    values are sliced (and decoded) only when a consumer asks for them, so a
    scan that wants no text allocates little more than its tag names.
    {!document} is the scanner plus a consumer that builds the {!Ast}; a
    reader that needs only some elements (the MoML reader) consumes the
    events itself and builds no tree. *)

type error = {
  line : int;   (** 1-based *)
  column : int; (** 1-based *)
  message : string;
}
(** Where the scanner stopped and why. The scanner does not track lines:
    [line] and [column] are computed from the byte offset when the error is
    raised (one more than the newlines before it, and one more than the
    bytes since the last of them). *)

val pp_error : Format.formatter -> error -> unit
(** Renders as [line 3, column 7: message]. *)

type attributes
(** The attributes of the start tag being reported, as offsets into the
    input: nothing is copied until a consumer asks for a value. Valid only
    during the [start_tag] call that received it. *)

val attribute : attributes -> string -> string option
(** The decoded value of the named attribute. The scan has already checked
    its references, so decoding cannot fail. *)

type consumer = {
  start_tag : string -> attributes -> unit;
      (** A tag name and its attributes. *)
  end_tag : unit -> unit;
      (** Closes the innermost open element. A self-closing tag is reported
          as [start_tag] then [end_tag]. *)
  text : (string -> unit) option;
      (** [Some f] asks for character data: [f] receives each maximal run of
          decoded text, CDATA included, between two tags (comments and
          processing instructions do not split a run; empty runs are not
          reported). With [None] the scanner still checks every reference
          but builds no text at all. *)
}
(** The scanner's events. Every [start_tag] is matched by exactly one
    [end_tag], properly nested, and the first [start_tag] is the root.
    Events stop at the first error: a consumer that needs the whole document
    to be well formed acts only once {!scan} has returned [Ok]. *)

val scan : consumer -> string -> (unit, error) result
(** Scan a complete document: optional prolog, comments and processing
    instructions, then exactly one root element. Trailing garbage after the
    root element is an error. *)

val document : string -> (Ast.element, error) result
(** {!scan} building the tree: same acceptance and errors. Adjacent text
    (including CDATA and entity references) merges into one [Text] node. *)
