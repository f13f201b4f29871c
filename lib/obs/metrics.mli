(** A process-wide metrics registry for the WOLVES hot paths.

    Counters, gauges and timers (log-scale histograms over the monotonic
    {!Clock}), plus lightweight nestable spans, all registered under stable
    dotted names ([soundness.subset_checks], [corrector.prune_probes], ...).

    Everything sits behind one enable flag: when disabled (the default),
    every recording operation is a single load-and-branch, so instrumented
    hot loops cost essentially nothing in production. Handle creation
    ({!counter} / {!gauge} / {!timer}) is always allowed — modules register
    their metrics at load time — only {e recording} is gated.

    The registry is global mutable state (like the clock it wraps); callers
    that need isolation, such as per-experiment benchmark sections, use
    {!reset} between measurements.

    {b Domain safety.} Every cell is an [Atomic.t], so any domain records
    into any handle directly and totals recorded from several domains at
    once are exact: counters and histogram buckets add atomically, a
    timer's sum and maximum update by compare-and-set. Registration,
    {!snapshot} and {!reset} take an internal lock. A snapshot taken while
    other domains record reads each cell once rather than one instant of
    the whole registry, but a timer's [count] is derived from its buckets
    as read, so it always equals their sum. The span stack is
    domain-local; the tracer hooks run on whichever domain crosses the
    instrumented region (see {!tracer}). *)

type counter
type gauge
type timer

(* --- enable flag --- *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val enabled : (unit -> 'a) -> 'a
(** Run a thunk with recording enabled, restoring the previous flag
    afterwards (also on exceptions). *)

(* --- tracing hook --- *)

type span_args = (string * string) list
(** Structured key/value annotations attached to trace events (task counts,
    composite names, tier names, retry attempts, ...). *)

type tracer = {
  on_begin : string -> (unit -> span_args) -> unit;
      (** a timed region ([time] or [with_span]) opened *)
  on_end : string -> unit;  (** the matching region closed *)
  on_instant : string -> (unit -> span_args) -> unit;
      (** a point event ([instant]) *)
}
(** Event-level observer. Installing one makes every already-instrumented
    region ({!time} / {!with_span} call site) emit begin/end events in
    addition to — and independently of — histogram recording: tracing works
    with metrics disabled and vice versa. The argument thunk is passed
    through unforced so a tracer that drops an event (e.g. the server's
    per-request sampling gate) never pays for its annotations; force it at
    most once, at the moment the event is actually kept.

    The hooks are called on whichever domain runs the region, concurrently
    when several do (a parallel validate's pool workers, the server's
    worker domains). A tracer must therefore be domain-safe or filter by
    domain: [Wolves_trace.Trace]'s ring-buffer collector keeps only the
    events of the domain that created it, and the server's sampling tracer
    buffers per domain behind a domain-local gate. *)

val set_tracer : tracer option -> unit
(** Install (or remove, with [None]) the process-wide tracer. *)

val has_tracer : unit -> bool

val current_tracer : unit -> tracer option
(** The installed tracer, for callers that need to chain or save/restore
    around a temporary installation of their own. *)

val with_tracer : tracer -> (unit -> 'a) -> 'a
(** Run a thunk with the given tracer installed, restoring the previous one
    afterwards (also on exceptions). *)

val instant : string -> (unit -> span_args) -> unit
(** Emit a point event to the installed tracer, if any. The argument thunk
    is only forced when a tracer is installed, so call sites cost a single
    load-and-branch while tracing is off. No metric is recorded. *)

(* --- registration (idempotent by name) --- *)

val counter : string -> counter
(** Find or create the counter of that name.
    @raise Invalid_argument when the name is registered as another kind. *)

val gauge : string -> gauge

val timer : string -> timer

(* --- recording (no-ops while disabled) --- *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val observe : timer -> float -> unit
(** Record one duration in seconds (clamped at [0.]). *)

val time : ?args:(unit -> span_args) -> timer -> (unit -> 'a) -> 'a
(** Time a thunk on the monotonic clock and {!observe} the duration (also
    on exceptions). When a tracer is installed the region additionally
    emits begin/end events named after the timer, annotated with [args]
    (forced per event; defaults to none). While metrics and tracing are
    both off this is exactly [f ()]. *)

(* --- spans --- *)

val with_span : ?args:(unit -> span_args) -> string -> (unit -> 'a) -> 'a
(** Time a named, nestable region. Nested spans record under their
    [/]-joined path: [with_span "correct" (fun () -> with_span "weak" f)]
    records into the timers [span:correct] and [span:correct/weak]. The
    span stack unwinds correctly on exceptions. When a tracer is installed
    the region also emits begin/end events (named by the leaf name, with
    [args]). While metrics and tracing are both off this is exactly
    [f ()]. *)

val span_stack : unit -> string list
(** The names of the currently open spans, innermost first (for tests). *)

(* --- reading --- *)

val counter_value : counter -> int
val gauge_value : gauge -> float option
(** [None] until the gauge is first {!set}. *)

val bucket_bounds : float array
(** The fixed log-scale bucket upper bounds, in seconds, shared by every
    timer: powers of 4 from 4ns, the last entry [infinity]. *)

type timer_stats = {
  count : int;  (** number of observations *)
  sum : float;  (** total observed seconds *)
  max : float;  (** largest observation, [0.] when empty *)
  buckets : (float * int) list;
      (** (upper bound in seconds, observations ≤ bound); fixed log-scale
          bounds — powers of 4 from 4ns — shared by every timer, the last
          bucket unbounded ([infinity]). *)
}

val timer_stats : timer -> timer_stats

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stats) list;
}
(** All registered metrics, each section sorted by name. Gauges that were
    never set are omitted. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric (registrations survive) and unwind the
    open-span stack, so spans opened after a mid-span [reset] record under
    clean paths. *)

(* --- output --- *)

val snapshot_to_json : snapshot -> string
(** Render a snapshot as a JSON object
    [{"bucket_bounds_s": [..], "counters": {..}, "gauges": {..},
    "timers": {..}}]. [bucket_bounds_s] lists the shared log-scale bucket
    upper bounds in seconds, the unbounded last bound as [null]. Timer
    histograms list only non-empty buckets keyed by the rendered bound
    (the unbounded bucket keyed ["inf"]). *)

val dump_json : unit -> string
(** [snapshot_to_json (snapshot ())]. *)
