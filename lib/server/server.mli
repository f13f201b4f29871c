(** The concurrent provenance query server (ROADMAP item 1).

    A {!Service.t} corpus served over a line protocol ({!Protocol}) by a
    pool of OCaml 5 worker domains, built to stay correct {e and} available
    under hostile traffic:

    - {b Admission control}: accepted connections enter a bounded queue;
      once it is full, new arrivals get an immediate [OVERLOADED
      <retry-after-ms>] reply and are closed — a shed client learns its
      fate in microseconds instead of wedging a worker.
    - {b Deadlines}: a request's queue wait is charged against its
      correction deadline ({!Corrector.correct_with_deadline}'s [spent_s]),
      so load degrades answer {e tiers} (optimal → strong → weak), never
      latency honesty.
    - {b Slow-loris defence}: per-connection receive/send timeouts and a
      maximum request size; a stalled or oversized client costs one typed
      error reply, not a worker.
    - {b Isolation}: a request that raises produces [ERR internal] on its
      own connection; shared indexes are immutable after {!Service.load},
      so no request can poison another's view of the corpus.
    - {b Graceful drain}: {!request_stop} (safe from a signal handler)
      stops the acceptor; in-flight requests finish, queued-but-unserved
      connections get [ERR shutting-down], stragglers are cut after a
      grace period, the access log is flushed, and {!stop} returns — the
      CLI then exits 0.
    - {b Observability}: every request gets a monotonically assigned id
      and (when a {!Wolves_obs.Log} sink is installed) one structured
      access-log record carrying verb, deadline, queue wait, handler time,
      bytes and outcome; the server's own always-on per-verb counters and
      latency histograms, recorded once per request, feed the [STATS]
      reply and the [METRICS] Prometheus exposition; with
      [trace_sample > 0] every Nth request's spans are buffered
      domain-locally and committed contiguously to a shared ring, drained
      live by the [TRACE] verb.

    All I/O goes through {!Net_io}, so the chaos tests drive
    {!serve_connection} — the exact production read-dispatch-reply loop —
    over fault-injecting in-memory connections. *)

type config = {
  workers : int;  (** worker domains (default 4) *)
  queue_depth : int;  (** admission queue bound (default 64) *)
  read_timeout_s : float;  (** per-receive deadline (default 10) *)
  write_timeout_s : float;  (** per-send deadline (default 10) *)
  max_request_bytes : int;  (** request line bound (default 65536) *)
  default_deadline_ms : float option;
      (** budget for bare [CORRECT <id>] requests (default none: strong) *)
  retry_after_ms : int;  (** hint in [OVERLOADED] replies (default 100) *)
  drain_grace_s : float;
      (** how long {!stop} lets in-flight connections finish before
          cutting their sockets (default 5) *)
  slow_threshold_s : float option;
      (** handler time beyond which a [slow_request] warning record — with
          the request's span tree, when sampled — is logged (default
          none) *)
  trace_sample : int;
      (** keep every Nth request's spans in the trace ring; [0] (the
          default) disables sampling and the [TRACE] verb. While positive,
          {!create} installs the server's buffering tracer as the
          process-wide {!Wolves_obs.Metrics.tracer} (restored by
          {!stop}) *)
}

val default_config : config

(** Counter snapshot behind the [STATS] request. *)
type stats = {
  connections : int;  (** accepted and handed to a worker *)
  requests : int;
      (** request lines answered (including errors): the sum of the
          per-verb counters *)
  errors : int;  (** [ERR] replies *)
  shed : int;  (** connections refused with [OVERLOADED] *)
  timeouts : int;  (** connections cut by a receive/send deadline *)
  in_flight : int;
  queue_depth : int;
  draining : bool;
}

type t

val create : ?config:config -> Service.t -> t
(** A server with no listener: counters, histograms and dispatch only.
    This is what the chaos tests drive via {!serve_connection}. *)

type listen = Tcp of string * int | Unix_socket of string

val start : ?config:config -> listen -> Service.t -> (t, string) result
(** Bind, listen, spawn the acceptor and worker domains. A [Unix_socket]
    path is unlinked first if present and unlinked again on {!stop}.
    [Tcp] port [0] binds an ephemeral port — read it back with
    {!address}. *)

val address : t -> Unix.sockaddr option
(** The bound address, when started. *)

val serve_connection : t -> ?queued_s:float -> Net_io.t -> unit
(** The per-connection loop: read lines, parse, dispatch, reply, until
    end-of-stream, [QUIT], a fault, or drain. Never raises; always closes
    the connection. [queued_s] is charged as [spent_s] against the first
    request's deadline. *)

val handle_request : t -> ?spent_s:float -> Protocol.request -> Protocol.reply
(** Dispatch one request exactly as {!serve_connection} does, including
    the server-level [STATS]/[HEALTH] answers — the oracle the chaos tests
    compare wire bytes against. *)

val stats : t -> stats

val verbs : string array
(** The fixed verb families per-verb counters are keyed by: every
    {!Protocol.request} kind plus ["malformed"]. *)

val stats_lines : t -> string list
(** The [STATS] reply payload: one [key value] line per field — uptime,
    corpus size, aggregate counters, one [requests_<verb>] line per
    {!verbs} entry, queue/in-flight levels and latency percentiles. *)

val metrics_lines : t -> string list
(** The [METRICS] reply payload: Prometheus text exposition of the
    server's own families ([wolves_server_*]: counters, per-verb counters,
    the latency histogram over all verbs with explicit bucket bounds and
    [+Inf], derived quantile gauges) followed by the {!Wolves_obs.Metrics}
    registry rendered by {!Wolves_obs.Prom.render}. Library code records
    into the registry only while it is enabled ([wolves serve
    --metrics]). *)

val trace_events : t -> Wolves_trace.Trace.event list
(** The sampled-request events currently retained in the trace ring,
    oldest first, without draining them ([[]] when sampling is off) — for
    exporting a Perfetto trace at shutdown. *)

val request_stop : t -> unit
(** Begin draining. Async-signal-safe: sets a flag, takes no locks. *)

val stop_requested : t -> bool

val stop : t -> unit
(** Drain and join everything; idempotent, safe to call concurrently.
    After [stop], the listener is closed (and a Unix socket path
    unlinked), all domains are joined, and the access log is flushed. *)

val drained : t -> bool
(** The server has fully stopped (all domains joined). *)
