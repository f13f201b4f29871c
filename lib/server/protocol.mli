(** The wire protocol of {!Server}: LF-terminated request lines, framed
    replies. See [docs/PROTOCOL.md] for the client-facing description.

    Requests (one line, space-separated, command case-insensitive):
    {v
    PING | LIST | STATS | HEALTH | METRICS | TRACE | QUIT
    VALIDATE <id>
    CORRECT <id> [weak|strong|optimal]
    CORRECT <id> DEADLINE <ms>
    QUERY <id> <expr...>
    LINT <id> | ANALYZE <id>
    v}

    Replies:
    {v
    OK <n>            followed by n payload lines
    ERR <code> <msg>  single line
    OVERLOADED <ms>   single line, retry-after hint
    v} *)

open Wolves_core

(** How a [CORRECT] request wants its correction bounded. *)
type correction =
  | Criterion of Corrector.criterion
  | Deadline_ms of float
      (** run {!Corrector.correct_with_deadline} under this budget;
          the server charges its queue wait against it *)

type request =
  | Ping
  | List_ids
  | Stats
  | Health
  | Metrics
      (** Prometheus text-format exposition of the server's own families
          plus the {!Wolves_obs.Metrics} registry *)
  | Trace
      (** drain the sampled-request trace ring as Chrome trace-event JSONL
          (requires the server to run with trace sampling on) *)
  | Quit
  | Validate of string
  | Correct of string * correction option
      (** [None]: the server's default deadline if configured, else the
          strong criterion *)
  | Query of string * string  (** id, query expression (raw remainder) *)
  | Lint of string
  | Analyze of string

type reply =
  | Ok_lines of string list
  | Err of string * string  (** machine code, human message *)
  | Overloaded of int  (** retry-after hint, milliseconds *)

val parse : string -> (request, string * string) result
(** Parse one request line. [Error (code, message)] uses the same codes as
    {!Err} ([bad-request], [unknown-command]). Total: any byte garbage
    parses to an [Error], never raises. *)

val render : reply -> string
(** Wire form, including all line terminators. Payload lines are folded to
    single lines (each CR and LF becomes a space; every other byte,
    control bytes included, is copied as is); [Err] messages are
    additionally sanitised to printable ASCII and truncated. *)

val kind : request -> string
(** Lower-case request family name, for metric and span labels. *)

val sanitize : string -> string
(** Printable-ASCII projection of an untrusted string, truncated to 200
    bytes — safe to embed in a single-line reply or log. *)

val parse_reply_stream : string -> (reply list * string, string) result
(** Parse a concatenation of rendered replies, e.g. everything a server
    wrote on one connection. Returns the complete replies in order plus
    any trailing bytes that do not yet form a complete reply (a reply cut
    mid-frame by a fault). [Error] when a completed line violates the
    protocol — the chaos tests' well-formedness oracle. *)
