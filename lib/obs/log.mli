(** Structured, leveled JSONL logging for long-running wolves processes —
    the access-log backbone of [wolves serve].

    One record per call, rendered as a single JSON object per line
    ([{"ts": .., "level": "info", "event": "request", ...fields}]), written
    to a process-wide {!sink}. Like {!Metrics}, everything sits behind one
    installed-sink check: with no sink installed (the default), {!event} is
    a single load-and-branch and the field thunk is never forced, so
    instrumented request loops cost essentially nothing when logging is
    off.

    {b Domain safety.} Records are formatted on the emitting domain and the
    final line write (plus flush) happens under an internal lock, so worker
    domains can log concurrently without interleaving bytes; each record
    lands on its own line, whole. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** Lower-case name: ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option

(** A structured field value. Strings are JSON-escaped on render; non-finite
    floats render as [null]. *)
type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type sink
(** Where rendered lines go. *)

val channel_sink : ?flush_every_record:bool -> out_channel -> sink
(** Write records to a channel. With [flush_every_record] (the default) each
    record is flushed as it is written, so [tail -f] on an access log sees
    requests as they complete and a crash loses at most the in-flight
    record. *)

val buffer_sink : Buffer.t -> sink
(** Collect records in memory — the test harness's sink. Reads of the
    buffer are only safe once no domain is logging (e.g. after a server
    drain); the writes themselves are serialised by the module lock. *)

val set : ?level:level -> sink option -> unit
(** Install (or with [None] remove) the process-wide sink; [level] (default
    [Info]) is the minimum level recorded. Flushes the outgoing sink when
    replacing one. *)

val current : unit -> (sink * level) option

val enabled : level -> bool
(** Would a record at this level be written right now? One load and a
    compare — safe to call per request. *)

val event : level -> string -> (unit -> (string * value) list) -> unit
(** Emit one record. The field thunk is only forced when a sink is
    installed and the level passes, so call sites are free while logging
    is off. Field order is preserved; [ts] (wall-clock seconds since the
    epoch), [level] and [event] are prepended. Never raises: a sink whose
    write fails disables itself (recorded in the
    [log.sink_errors] metric counter). *)

val flush : unit -> unit
(** Flush the installed sink, if any. *)

val with_sink : ?level:level -> sink -> (unit -> 'a) -> 'a
(** Run a thunk with the given sink installed, restoring the previous
    sink/level afterwards (also on exceptions). *)
