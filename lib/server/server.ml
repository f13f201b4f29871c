module Metrics = Wolves_obs.Metrics
module Clock = Wolves_obs.Clock
module Log = Wolves_obs.Log
module Prom = Wolves_obs.Prom
module Ring = Wolves_trace.Trace

type config = {
  workers : int;
  queue_depth : int;
  read_timeout_s : float;
  write_timeout_s : float;
  max_request_bytes : int;
  default_deadline_ms : float option;
  retry_after_ms : int;
  drain_grace_s : float;
  slow_threshold_s : float option;
  trace_sample : int;
}

let default_config =
  { workers = 4;
    queue_depth = 64;
    read_timeout_s = 10.;
    write_timeout_s = 10.;
    max_request_bytes = 64 * 1024;
    default_deadline_ms = None;
    retry_after_ms = 100;
    drain_grace_s = 5.;
    slow_threshold_s = None;
    trace_sample = 0 }

let validate_config c =
  if c.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if c.queue_depth < 1 then invalid_arg "Server: queue_depth must be >= 1";
  if c.read_timeout_s <= 0. || c.write_timeout_s <= 0. then
    invalid_arg "Server: timeouts must be positive";
  if c.max_request_bytes < 16 then
    invalid_arg "Server: max_request_bytes must be >= 16";
  if c.retry_after_ms < 0 then invalid_arg "Server: retry_after_ms must be >= 0";
  if c.drain_grace_s < 0. then invalid_arg "Server: drain_grace_s must be >= 0";
  (match c.slow_threshold_s with
  | Some s when s < 0. -> invalid_arg "Server: slow_threshold_s must be >= 0"
  | _ -> ());
  if c.trace_sample < 0 then invalid_arg "Server: trace_sample must be >= 0"

type stats = {
  connections : int;
  requests : int;
  errors : int;
  shed : int;
  timeouts : int;
  in_flight : int;
  queue_depth : int;
  draining : bool;
}

(* Log-scale latency histogram over lock-free buckets: bucket [i] counts
   requests in [2^(i-1), 2^i) microseconds. Good to ~70 s with 1-bit
   resolution, which is all a p50/p99 readout needs. The microsecond sum
   rides along so the exposition can serve a faithful [_sum]. *)
module Hist = struct
  let buckets = 40

  type t = { cells : int Atomic.t array; sum_us : int Atomic.t }

  let create () =
    { cells = Array.init buckets (fun _ -> Atomic.make 0);
      sum_us = Atomic.make 0 }

  let observe (h : t) seconds =
    let us = int_of_float (Float.max 0. seconds *. 1e6) in
    let rec index i v = if v = 0 || i >= buckets - 1 then i else index (i + 1) (v lsr 1) in
    ignore (Atomic.fetch_and_add h.sum_us us);
    Atomic.incr h.cells.(index 0 us)

  let count (h : t) =
    Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.cells

  let sum_s (h : t) = float_of_int (Atomic.get h.sum_us) *. 1e-6

  let quantile (h : t) q =
    let total = count h in
    if total = 0 then 0.
    else begin
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let rec go i acc =
        let acc = acc + Atomic.get h.cells.(i) in
        if acc >= rank || i = buckets - 1 then
          (* upper bound of bucket i, in seconds *)
          Float.of_int (1 lsl i) *. 1e-6
        else go (i + 1) acc
      in
      go 0 0
    end

  (* The bucket-wise sum of several histograms, as a fresh one. *)
  let merge (hs : t array) =
    let sum cell =
      Atomic.make (Array.fold_left (fun acc h -> acc + Atomic.get (cell h)) 0 hs)
    in
    { cells = Array.init buckets (fun i -> sum (fun h -> h.cells.(i)));
      sum_us = sum (fun h -> h.sum_us) }

  (* (upper bound in seconds, cumulative count) per bucket, the last bound
     [infinity] — bucket [buckets-1] already catches everything beyond. *)
  let cumulative (h : t) =
    let acc = ref 0 in
    List.init buckets (fun i ->
        acc := !acc + Atomic.get h.cells.(i);
        let bound =
          if i = buckets - 1 then infinity
          else Float.of_int (1 lsl i) *. 1e-6
        in
        (bound, !acc))
end

(* The fixed verb families every per-verb counter/histogram is keyed by:
   one slot per protocol request kind, plus "malformed" for lines that
   never parsed. Indexing is by [verb_index], total over any kind string. *)
let verbs =
  [| "ping"; "list"; "stats"; "health"; "metrics"; "trace"; "quit";
     "validate"; "correct"; "query"; "lint"; "analyze"; "malformed" |]

let verb_index kind =
  let n = Array.length verbs in
  let rec go i = if i >= n - 1 then n - 1 else if verbs.(i) = kind then i else go (i + 1) in
  go 0

type t = {
  config : config;
  service : Service.t;
  stop_flag : bool Atomic.t;
  drained_flag : bool Atomic.t;
  queue : (Unix.file_descr * float) Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  stop_lock : Mutex.t;
  mutable stopped : bool;
  mutable acceptor : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
  mutable listener : Unix.file_descr option;
  mutable socket_path : string option;
  active : Unix.file_descr option Atomic.t array;
      (** per-worker connection being served, for drain cut-off *)
  c_connections : int Atomic.t;
  c_errors : int Atomic.t;
  c_shed : int Atomic.t;
  c_timeouts : int Atomic.t;
  c_in_flight : int Atomic.t;
  next_req_id : int Atomic.t;
  verb_requests : int Atomic.t array;
      (** indexed like [verbs]; the request total is their sum *)
  verb_errors : int Atomic.t array;
  verb_latency : Hist.t array;
      (** the latency of all requests is their bucket-wise sum *)
  trace_ring : Ring.t option;  (** sampled request spans, when sampling *)
  mutable saved_tracer : Metrics.tracer option;  (** restored on [stop] *)
  started_at : float;
}

(* --- request-scoped trace sampling ---------------------------------- *)

(* A sampled request buffers its span events domain-locally while the
   handler runs (the gate below), then commits them to the shared ring in
   one atomic batch at request end — so each request's spans are
   contiguous in the ring and reconstruct as one balanced tree, and the
   unsampled hot path never touches the ring at all. *)
let req_trace_gate : Ring.event list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let no_args () = []

let buffering_tracer =
  (* The annotation thunk arrives unforced, so an unsampled request pays
     one domain-local read per event and never materialises its args. *)
  let push phase name args =
    match !(Domain.DLS.get req_trace_gate) with
    | None -> ()
    | Some buf ->
        buf := { Ring.phase; name; ts = Clock.now (); args = args () } :: !buf
  in
  { Metrics.on_begin = (fun name args -> push Ring.Begin name args);
    on_end = (fun name -> push Ring.End name no_args);
    on_instant = (fun name args -> push Ring.Instant name args) }

let create ?(config = default_config) service =
  validate_config config;
  let trace_ring =
    if config.trace_sample > 0 then Some (Ring.create ()) else None
  in
  let saved_tracer =
    (* Sampling needs the instrumented regions to emit events, so the
       buffering tracer goes in process-wide for the server's lifetime
       (it is inert outside sampled requests); [stop] restores whatever
       was installed before. *)
    if trace_ring <> None then begin
      let prev = Metrics.current_tracer () in
      Metrics.set_tracer (Some buffering_tracer);
      prev
    end
    else None
  in
  { config;
    service;
    stop_flag = Atomic.make false;
    drained_flag = Atomic.make false;
    queue = Queue.create ();
    qlock = Mutex.create ();
    qcond = Condition.create ();
    stop_lock = Mutex.create ();
    stopped = false;
    acceptor = None;
    worker_domains = [];
    listener = None;
    socket_path = None;
    active = Array.init config.workers (fun _ -> Atomic.make None);
    c_connections = Atomic.make 0;
    c_errors = Atomic.make 0;
    c_shed = Atomic.make 0;
    c_timeouts = Atomic.make 0;
    c_in_flight = Atomic.make 0;
    next_req_id = Atomic.make 1;
    verb_requests = Array.init (Array.length verbs) (fun _ -> Atomic.make 0);
    verb_errors = Array.init (Array.length verbs) (fun _ -> Atomic.make 0);
    verb_latency = Array.init (Array.length verbs) (fun _ -> Hist.create ());
    trace_ring;
    saved_tracer;
    started_at = Clock.now () }

let queue_len t =
  Mutex.lock t.qlock;
  let n = Queue.length t.queue in
  Mutex.unlock t.qlock;
  n

let stop_requested t = Atomic.get t.stop_flag
let drained t = Atomic.get t.drained_flag

let verb_counts t = Array.map Atomic.get t.verb_requests

(* [counts] comes from one [verb_counts] read, so a reply's request total
   and its per-verb lines agree. *)
let stats_of t counts =
  { connections = Atomic.get t.c_connections;
    requests = Array.fold_left ( + ) 0 counts;
    errors = Atomic.get t.c_errors;
    shed = Atomic.get t.c_shed;
    timeouts = Atomic.get t.c_timeouts;
    in_flight = Atomic.get t.c_in_flight;
    queue_depth = queue_len t;
    draining = stop_requested t }

let stats t = stats_of t (verb_counts t)

let stats_lines t =
  let counts = verb_counts t in
  let s = stats_of t counts in
  let latency = Hist.merge t.verb_latency in
  [ Printf.sprintf "uptime_s %.3f" (Clock.elapsed_since t.started_at);
    Printf.sprintf "corpus %d" (Service.size t.service);
    Printf.sprintf "workers %d" t.config.workers;
    Printf.sprintf "connections %d" s.connections;
    Printf.sprintf "requests %d" s.requests ]
  @ Array.to_list
      (Array.mapi
         (fun i verb -> Printf.sprintf "requests_%s %d" verb counts.(i))
         verbs)
  @ [ Printf.sprintf "errors %d" s.errors;
      Printf.sprintf "shed %d" s.shed;
      Printf.sprintf "timeouts %d" s.timeouts;
      Printf.sprintf "in_flight %d" s.in_flight;
      Printf.sprintf "queue_depth %d" s.queue_depth;
      Printf.sprintf "latency_p50_ms %.3f" (Hist.quantile latency 0.5 *. 1e3);
      Printf.sprintf "latency_p99_ms %.3f" (Hist.quantile latency 0.99 *. 1e3);
      Printf.sprintf "draining %b" s.draining ]

(* --- Prometheus exposition ------------------------------------------ *)

let fmt_bound b = if b = infinity then "+Inf" else Printf.sprintf "%.12g" b

(* The server's own families are rendered by hand under a [wolves_] prefix
   so they can never collide with registry-derived names; the registry
   snapshot is appended through [Prom.render]. *)
let metrics_lines t =
  let buf = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let counter name v =
    line "# TYPE %s counter" name;
    line "%s %d" name v
  in
  let gauge name v =
    line "# TYPE %s gauge" name;
    line "%s %s" name v
  in
  let counts = verb_counts t in
  let s = stats_of t counts in
  let latency = Hist.merge t.verb_latency in
  gauge "wolves_server_uptime_seconds"
    (Printf.sprintf "%.3f" (Clock.elapsed_since t.started_at));
  counter "wolves_server_requests_total" s.requests;
  counter "wolves_server_connections_total" s.connections;
  counter "wolves_server_errors_total" s.errors;
  counter "wolves_server_shed_total" s.shed;
  counter "wolves_server_timeouts_total" s.timeouts;
  gauge "wolves_server_in_flight" (string_of_int s.in_flight);
  gauge "wolves_server_queue_depth" (string_of_int s.queue_depth);
  gauge "wolves_server_draining" (if s.draining then "1" else "0");
  line "# TYPE wolves_server_verb_requests_total counter";
  Array.iteri
    (fun i verb ->
      line "wolves_server_verb_requests_total{verb=\"%s\"} %d" verb
        counts.(i))
    verbs;
  line "# TYPE wolves_server_verb_errors_total counter";
  Array.iteri
    (fun i verb ->
      line "wolves_server_verb_errors_total{verb=\"%s\"} %d" verb
        (Atomic.get t.verb_errors.(i)))
    verbs;
  let n = Hist.count latency in
  if n > 0 then begin
    line "# TYPE wolves_server_latency_seconds histogram";
    List.iter
      (fun (bound, cum) ->
        line "wolves_server_latency_seconds_bucket{le=\"%s\"} %d"
          (fmt_bound bound) cum)
      (Hist.cumulative latency);
    line "wolves_server_latency_seconds_sum %.9g" (Hist.sum_s latency);
    line "wolves_server_latency_seconds_count %d" n;
    line "# TYPE wolves_server_latency_seconds_quantile gauge";
    List.iter
      (fun q ->
        line "wolves_server_latency_seconds_quantile{quantile=\"%g\"} %.9g" q
          (Hist.quantile latency q))
      [ 0.5; 0.9; 0.99 ]
  end;
  line "# TYPE wolves_server_verb_latency_seconds_quantile gauge";
  Array.iteri
    (fun i verb ->
      if Hist.count t.verb_latency.(i) > 0 then
        List.iter
          (fun q ->
            line
              "wolves_server_verb_latency_seconds_quantile{verb=\"%s\",quantile=\"%g\"} %.9g"
              verb q
              (Hist.quantile t.verb_latency.(i) q))
          [ 0.5; 0.99 ])
    verbs;
  (match t.trace_ring with
  | Some ring ->
      gauge "wolves_server_trace_ring_events" (string_of_int (Ring.length ring));
      counter "wolves_server_trace_ring_dropped_total" (Ring.dropped ring)
  | None -> ());
  (* Registry families: library code records into them only while the
     registry is enabled ([wolves serve --metrics]). *)
  Buffer.add_string buf (Prom.render (Metrics.snapshot ()));
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let trace_events t =
  match t.trace_ring with None -> [] | Some ring -> Ring.events ring

let handle_request t ?(spent_s = 0.) request =
  match request with
  | Protocol.Stats -> Protocol.Ok_lines (stats_lines t)
  | Protocol.Health ->
      Protocol.Ok_lines
        [ (if stop_requested t then "draining" else "ok");
          Printf.sprintf "corpus %d" (Service.size t.service) ]
  | Protocol.Metrics -> Protocol.Ok_lines (metrics_lines t)
  | Protocol.Trace -> (
      match t.trace_ring with
      | None ->
          Protocol.Err
            ("bad-request", "tracing is off (serve with --trace-sample N)")
      | Some ring ->
          let events = Ring.drain ring in
          Wolves_trace.Export.to_jsonl events
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
          |> fun lines -> Protocol.Ok_lines lines)
  | request ->
      Service.handle ~domains:1 ~spent_s
        ?default_deadline_ms:t.config.default_deadline_ms t.service request

(* --- access log ------------------------------------------------------ *)

let outcome_fields reply =
  match reply with
  | Protocol.Ok_lines lines ->
      [ ("outcome", Log.Str "ok");
        ("payload_lines", Log.Int (List.length lines)) ]
  | Protocol.Err (code, _) ->
      [ ("outcome", Log.Str "err"); ("code", Log.Str code) ]
  | Protocol.Overloaded ms ->
      [ ("outcome", Log.Str "overloaded"); ("retry_after_ms", Log.Int ms) ]

let deadline_ms_of t parsed =
  match parsed with
  | Ok (Protocol.Correct (_, Some (Protocol.Deadline_ms ms))) -> Some ms
  | Ok (Protocol.Correct (_, None)) -> t.config.default_deadline_ms
  | _ -> None

(* One flat line per reconstructed span: [path dur_us self_us]. Compact
   enough for a log field, complete enough to see where a slow request
   went. *)
let span_tree_string events =
  let spans, _orphans = Ring.spans events in
  String.concat " | "
    (List.map
       (fun (sp : Ring.span) ->
         Printf.sprintf "%s %.0fus self %.0fus"
           (String.concat "/" sp.stack)
           ((sp.end_ts -. sp.begin_ts) *. 1e6)
           (sp.self_s *. 1e6))
       spans)

let log_request t ~rid ~kind ~parsed ~reply ~queued_s ~handler_s ~elapsed_s
    ~bytes_in ~bytes_out ~sampled ~events =
  if Log.enabled Log.Info then begin
    Log.event Log.Info "request" (fun () ->
        [ ("req_id", Log.Int rid);
          ("verb", Log.Str kind);
          ("deadline_ms",
           match deadline_ms_of t parsed with
           | Some ms -> Log.Float ms
           | None -> Log.Str "-");
          ("queue_wait_ms", Log.Float (queued_s *. 1e3));
          ("handler_ms", Log.Float (handler_s *. 1e3));
          ("total_ms", Log.Float (elapsed_s *. 1e3));
          ("bytes_in", Log.Int bytes_in);
          ("bytes_out", Log.Int bytes_out);
          ("sampled", Log.Bool sampled) ]
        @ outcome_fields reply);
    match t.config.slow_threshold_s with
    | Some threshold when handler_s >= threshold ->
        Log.event Log.Warn "slow_request" (fun () ->
            [ ("req_id", Log.Int rid);
              ("verb", Log.Str kind);
              ("handler_ms", Log.Float (handler_s *. 1e3));
              ("threshold_ms", Log.Float (threshold *. 1e3));
              ("spans",
               if sampled then Log.Str (span_tree_string events)
               else Log.Str "unsampled (raise --trace-sample)") ])
    | _ -> ()
  end

let serve_connection t ?(queued_s = 0.) (conn : Net_io.t) =
  Atomic.incr t.c_connections;
  let reader = Net_io.Lines.reader conn in
  (* best-effort send: a dying peer must not take the worker with it *)
  let send s =
    match Net_io.send_all conn s with
    | () -> true
    | exception Net_io.Timeout ->
        Atomic.incr t.c_timeouts;
        false
    | exception Net_io.Net_error _ -> false
  in
  let spent = ref queued_s in
  (try
     let continue = ref true in
     while !continue do
       if stop_requested t then begin
         ignore
           (send
              (Protocol.render
                 (Protocol.Err ("shutting-down", "server is draining"))));
         continue := false
       end
       else
         match
           Net_io.Lines.read_line reader ~max_bytes:t.config.max_request_bytes
         with
         | `Eof -> continue := false
         | `Too_long ->
             (* framing is lost: reply once, then the connection must die *)
             Atomic.incr t.c_errors;
             ignore
               (send
                  (Protocol.render
                     (Protocol.Err
                        ( "too-large",
                          Printf.sprintf "request exceeds %d bytes"
                            t.config.max_request_bytes ))));
             continue := false
         | `Line line when String.trim line = "" -> ()
         | `Line line ->
             let t0 = Clock.now () in
             Atomic.incr t.c_in_flight;
             let rid = Atomic.fetch_and_add t.next_req_id 1 in
             let parsed = Protocol.parse line in
             let kind =
               match parsed with
               | Ok request -> Protocol.kind request
               | Error _ -> "malformed"
             in
             let this_queued_s = !spent in
             (* head-based sampling: every Nth request id buffers its span
                events; the rest never touch the tracer gate again *)
             let sample_buf =
               if
                 t.config.trace_sample > 0
                 && rid mod t.config.trace_sample = 0
               then begin
                 let buf =
                   ref
                     [ { Ring.phase = Ring.Begin;
                         name = "request";
                         ts = t0;
                         args =
                           [ ("req_id", string_of_int rid); ("verb", kind) ] } ]
                 in
                 Domain.DLS.get req_trace_gate := Some buf;
                 Some buf
               end
               else None
             in
             let reply =
               match parsed with
               | Error (code, msg) -> Protocol.Err (code, msg)
               | Ok request -> (
                   (* isolation: a raising handler costs one ERR reply *)
                   try handle_request t ~spent_s:!spent request
                   with e -> Protocol.Err ("internal", Printexc.to_string e))
             in
             let handler_s = Clock.elapsed_since t0 in
             let sampled_events =
               match sample_buf with
               | None -> []
               | Some buf ->
                   Domain.DLS.get req_trace_gate := None;
                   buf :=
                     { Ring.phase = Ring.End;
                       name = "request";
                       ts = Clock.now ();
                       args = [] }
                     :: !buf;
                   let events = List.rev !buf in
                   (match t.trace_ring with
                   | Some ring -> Ring.record_all ring events
                   | None -> ());
                   events
             in
             spent := 0.;
             let rendered = Protocol.render reply in
             let sent_ok = send rendered in
             let elapsed_s = Clock.elapsed_since t0 in
             let vi = verb_index kind in
             Atomic.incr t.verb_requests.(vi);
             Hist.observe t.verb_latency.(vi) elapsed_s;
             let is_error =
               match reply with Protocol.Err _ -> true | _ -> false
             in
             if is_error then begin
               Atomic.incr t.c_errors;
               Atomic.incr t.verb_errors.(vi)
             end;
             Atomic.decr t.c_in_flight;
             log_request t ~rid ~kind ~parsed ~reply ~queued_s:this_queued_s
               ~handler_s ~elapsed_s ~bytes_in:(String.length line + 1)
               ~bytes_out:(String.length rendered) ~sampled:(sample_buf <> None)
               ~events:sampled_events;
             (match parsed with
             | Ok Protocol.Quit -> continue := false
             | _ -> ());
             if not sent_ok then continue := false
     done
   with
  | Net_io.Timeout ->
      (* slow-loris or idle past the read deadline *)
      Atomic.incr t.c_timeouts;
      (try
         Net_io.send_all conn
           (Protocol.render
              (Protocol.Err ("timeout", "no complete request within deadline")))
       with Net_io.Timeout | Net_io.Net_error _ -> ())
  | Net_io.Net_error _ -> ()
  | _ -> Atomic.incr t.c_errors);
  try conn.Net_io.close () with _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loop, workers, lifecycle                                     *)
(* ------------------------------------------------------------------ *)

let shed_connection t fd =
  Atomic.incr t.c_shed;
  let rid = Atomic.fetch_and_add t.next_req_id 1 in
  Log.event Log.Info "request" (fun () ->
      (* the request line was never read — the connection was refused at
         the door — but the shed is still one numbered access-log record *)
      [ ("req_id", Log.Int rid);
        ("verb", Log.Str "-");
        ("outcome", Log.Str "overloaded");
        ("retry_after_ms", Log.Int t.config.retry_after_ms) ]);
  let conn = Net_io.of_fd ~read_timeout_s:0.1 ~write_timeout_s:0.5 fd in
  (try
     Net_io.send_all conn
       (Protocol.render (Protocol.Overloaded t.config.retry_after_ms))
   with Net_io.Timeout | Net_io.Net_error _ -> ());
  try conn.Net_io.close () with _ -> ()

let accept_loop t fd =
  let stop = ref false in
  while not !stop do
    if stop_requested t then stop := true
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ()
          | exception Unix.Unix_error _ -> stop := true
          | cfd, _ ->
              Mutex.lock t.qlock;
              if Queue.length t.queue >= t.config.queue_depth then begin
                Mutex.unlock t.qlock;
                (* load-shedding: refuse in O(1), never block the acceptor *)
                shed_connection t cfd
              end
              else begin
                Queue.push (cfd, Clock.now ()) t.queue;
                Condition.signal t.qcond;
                Mutex.unlock t.qlock
              end)
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match t.socket_path with
  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
  | None -> ()

let worker_loop t i =
  let rec next () =
    Mutex.lock t.qlock;
    let rec await () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if stop_requested t then None
      else begin
        Condition.wait t.qcond t.qlock;
        await ()
      end
    in
    let item = await () in
    Mutex.unlock t.qlock;
    match item with
    | None -> ()
    | Some (fd, enqueued_at) ->
        Atomic.set t.active.(i) (Some fd);
        (if stop_requested t then begin
           (* accepted but never served: a fast typed refusal beats a hang *)
           let conn = Net_io.of_fd ~read_timeout_s:0.1 ~write_timeout_s:0.5 fd in
           (try
              Net_io.send_all conn
                (Protocol.render
                   (Protocol.Err ("shutting-down", "server is draining")))
            with Net_io.Timeout | Net_io.Net_error _ -> ());
           try conn.Net_io.close () with _ -> ()
         end
         else
           let conn =
             Net_io.of_fd ~read_timeout_s:t.config.read_timeout_s
               ~write_timeout_s:t.config.write_timeout_s fd
           in
           serve_connection t ~queued_s:(Clock.elapsed_since enqueued_at) conn);
        Atomic.set t.active.(i) None;
        next ()
  in
  next ()

type listen = Tcp of string * int | Unix_socket of string

(* A peer that disappears mid-reply must surface as EPIPE (mapped to
   Net_error by Net_io), not kill the process with SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> ()

let start ?(config = default_config) listen service =
  ignore_sigpipe ();
  match
    let t = create ~config service in
    let fd, path =
      match listen with
      | Tcp (host, port) ->
          let addr =
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                  failwith (Printf.sprintf "cannot resolve %s" host)
              | { Unix.h_addr_list; _ } -> h_addr_list.(0)
              | exception Not_found ->
                  failwith (Printf.sprintf "cannot resolve %s" host))
          in
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.setsockopt fd Unix.SO_REUSEADDR true;
             Unix.bind fd (Unix.ADDR_INET (addr, port));
             Unix.listen fd 128
           with e ->
             (try Unix.close fd with _ -> ());
             raise e);
          (fd, None)
      | Unix_socket p ->
          if Sys.file_exists p then (try Unix.unlink p with _ -> ());
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try
             Unix.bind fd (Unix.ADDR_UNIX p);
             Unix.listen fd 128
           with e ->
             (try Unix.close fd with _ -> ());
             raise e);
          (fd, Some p)
    in
    t.listener <- Some fd;
    t.socket_path <- path;
    t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t fd));
    t.worker_domains <-
      List.init config.workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let address t =
  match t.listener with
  | None -> None
  | Some fd -> ( try Some (Unix.getsockname fd) with Unix.Unix_error _ -> None)

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  Mutex.lock t.stop_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.stop_lock)
    (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        Atomic.set t.stop_flag true;
        Mutex.lock t.qlock;
        Condition.broadcast t.qcond;
        Mutex.unlock t.qlock;
        (match t.acceptor with
        | Some d ->
            Domain.join d;
            t.acceptor <- None
        | None -> ());
        t.listener <- None;
        (* grace for in-flight connections, then cut their sockets so a
           worker blocked in a receive comes back *)
        let deadline = Clock.now () +. t.config.drain_grace_s in
        let all_idle () =
          Array.for_all (fun a -> Atomic.get a = None) t.active
        in
        while (not (all_idle ())) && Clock.now () < deadline do
          Unix.sleepf 0.02
        done;
        Array.iter
          (fun a ->
            match Atomic.get a with
            | Some fd -> (
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
            | None -> ())
          t.active;
        Mutex.lock t.qlock;
        Condition.broadcast t.qcond;
        Mutex.unlock t.qlock;
        List.iter Domain.join t.worker_domains;
        t.worker_domains <- [];
        (* hand the tracer slot back and get the access log on disk *)
        if t.trace_ring <> None then Metrics.set_tracer t.saved_tracer;
        Log.flush ();
        Atomic.set t.drained_flag true
      end)
