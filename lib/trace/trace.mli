(** Wolves_trace: a bounded ring-buffer trace collector.

    Aggregate metrics ({!Wolves_obs.Metrics} counters and histograms)
    answer "how much, overall?"; this module answers "where did {e this}
    run spend its time?". A collector records begin/end span events and
    instant events — with structured args — emitted by every region already
    instrumented through [Metrics.time] / [Metrics.with_span], by
    installing itself as the registry's {!Wolves_obs.Metrics.tracer}. No
    new call sites are needed in the hot paths, and an uninstalled tracer
    costs those paths the same single load-and-branch as disabled metrics.

    The buffer is bounded: once full, recording a new event drops the
    {e oldest} one (and counts the drop, both locally and in the
    [trace.dropped] registry counter), so tracing a long run keeps the most
    recent window instead of failing or growing without bound.

    {b Domain safety.} Every ring operation — record, read, clear, drain —
    takes an internal per-collector lock, so server worker domains can
    flush sampled request spans into one shared ring while another
    connection drains it. ({!length} and {!dropped} read single fields
    without the lock; treat them as monitoring hints under concurrency.)

    Exporters live in {!Export} (Chrome trace-event JSON for
    Perfetto / [chrome://tracing], JSONL, collapsed stacks for flamegraphs)
    and {!Profile} (in-process top-k self/total-time reports). *)

type phase =
  | Begin  (** a timed region opened *)
  | End  (** the matching region closed *)
  | Instant  (** a point event *)

type event = {
  phase : phase;
  name : string;
  ts : float;
      (** monotonic seconds ({!Wolves_obs.Clock} epoch; only differences
          are meaningful) *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh collector holding at most [capacity] events (default 65536).
    @raise Invalid_argument when [capacity < 1]. *)

val record : t -> phase -> string -> (string * string) list -> unit
(** Append one event, stamped with the monotonic clock now. When the
    buffer is full the oldest event is dropped. *)

val record_event : t -> event -> unit
(** Append one already-stamped event — for buffered producers (the server's
    per-request samplers) that stamp events as they happen but only commit
    them to the shared ring at request end. *)

val record_all : t -> event list -> unit
(** Append a batch of already-stamped events atomically: no event from
    another domain interleaves inside the batch, so a sampled request's
    spans stay contiguous in the ring and always reconstruct as one
    balanced tree. *)

val length : t -> int
val capacity : t -> int

val dropped : t -> int
(** Events evicted by ring overflow since creation (or the last
    {!clear}). *)

val events : t -> event list
(** The retained events, oldest first. *)

val clear : t -> unit

val drain : t -> event list
(** Atomically take the retained events (oldest first) and {!clear} the
    ring — the [TRACE] protocol verb: concurrent recorders land either
    before the drain (and are returned) or after (and are retained), never
    lost. *)

val tracer : t -> Wolves_obs.Metrics.tracer
(** The collector as a metrics-registry tracer. It keeps only the events
    emitted on the domain that called [tracer] and drops the rest
    uncounted, so the ring always reads back as one nested stream: a run
    parallelised over a domain pool traces the regions the calling domain
    ran itself, not its workers'. *)

val install : t -> unit
(** [Metrics.set_tracer (Some (tracer t))]: collects the calling domain's
    events. *)

val uninstall : unit -> unit
(** Remove whatever tracer is installed. *)

val with_tracing : t -> (unit -> 'a) -> 'a
(** Run a thunk with the collector installed as the registry tracer,
    restoring the previously installed tracer afterwards (also on
    exceptions). *)

(* --- span reconstruction (shared by exporters and profiling) --- *)

type span = {
  stack : string list;
      (** enclosing span names, outermost first, ending with this span *)
  begin_ts : float;
  end_ts : float;
  self_s : float;
      (** duration minus the duration of directly nested spans *)
  args : (string * string) list;
}

val spans : event list -> span list * int
(** Match begin/end pairs into completed spans (in end order) by a stack
    walk. The second component counts unmatched [End] events — ends whose
    [Begin] was evicted by ring overflow; they are skipped. A [Begin] still
    open at the end of the event list is closed at the last timestamp. *)
