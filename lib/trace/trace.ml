module Metrics = Wolves_obs.Metrics
module Clock = Wolves_obs.Clock

type phase = Begin | End | Instant

type event = {
  phase : phase;
  name : string;
  ts : float;
  args : (string * string) list;
}

type t = {
  buf : event option array;
  cap : int;
  mutable head : int;  (* index of the oldest retained event *)
  mutable len : int;
  mutable evicted : int;
  lock : Mutex.t;
}

let m_dropped = Metrics.counter "trace.dropped"
let m_events = Metrics.counter "trace.events"

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { buf = Array.make capacity None;
    cap = capacity;
    head = 0;
    len = 0;
    evicted = 0;
    lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = t.len
let capacity t = t.cap
let dropped t = t.evicted

let push t ev =
  Metrics.incr m_events;
  if t.len < t.cap then begin
    t.buf.((t.head + t.len) mod t.cap) <- Some ev;
    t.len <- t.len + 1
  end
  else begin
    (* Full: overwrite the oldest slot and advance the window. Because the
       ring always evicts from the front, the retained events remain a
       contiguous suffix of the stream — which is what lets exporters
       safely skip End events whose Begin was dropped. *)
    t.buf.(t.head) <- Some ev;
    t.head <- (t.head + 1) mod t.cap;
    t.evicted <- t.evicted + 1;
    Metrics.incr m_dropped
  end

let record t phase name args =
  let ev = { phase; name; ts = Clock.now (); args } in
  locked t (fun () -> push t ev)

let record_event t ev = locked t (fun () -> push t ev)

let record_all t evs = locked t (fun () -> List.iter (push t) evs)

let events_unlocked t =
  List.init t.len (fun i ->
      match t.buf.((t.head + i) mod t.cap) with
      | Some ev -> ev
      | None -> assert false)

let events t = locked t (fun () -> events_unlocked t)

let clear_unlocked t =
  Array.fill t.buf 0 t.cap None;
  t.head <- 0;
  t.len <- 0;
  t.evicted <- 0

let clear t = locked t (fun () -> clear_unlocked t)

let drain t =
  locked t (fun () ->
      let evs = events_unlocked t in
      clear_unlocked t;
      evs)

(* The ring is read back as one nested stream, so the tracer keeps only
   the events of the domain that created it: a pool worker's spans,
   interleaved with the creator's, would pair Begins with the wrong Ends.
   A kept event's annotation thunk is forced right away (exactly once). *)
let tracer t =
  let owner = Domain.self () in
  let mine () = Domain.self () = owner in
  {
    Metrics.on_begin =
      (fun name args -> if mine () then record t Begin name (args ()));
    on_end = (fun name -> if mine () then record t End name []);
    on_instant =
      (fun name args -> if mine () then record t Instant name (args ()));
  }

let install t = Metrics.set_tracer (Some (tracer t))
let uninstall () = Metrics.set_tracer None
let with_tracing t f = Metrics.with_tracer (tracer t) f

(* --- span reconstruction ------------------------------------------------ *)

type span = {
  stack : string list;
  begin_ts : float;
  end_ts : float;
  self_s : float;
  args : (string * string) list;
}

type open_frame = {
  f_name : string;
  f_begin : float;
  f_args : (string * string) list;
  mutable f_child : float;  (* summed duration of directly nested spans *)
}

let spans evs =
  let out = ref [] in
  let stack = ref [] in
  let orphans = ref 0 in
  let last_ts = ref nan in
  let close frame end_ts =
    let outermost_first =
      List.rev_map (fun f -> f.f_name) (frame :: !stack)
    in
    let dur = Float.max 0. (end_ts -. frame.f_begin) in
    (match !stack with
     | parent :: _ -> parent.f_child <- parent.f_child +. dur
     | [] -> ());
    out :=
      {
        stack = outermost_first;
        begin_ts = frame.f_begin;
        end_ts;
        self_s = Float.max 0. (dur -. frame.f_child);
        args = frame.f_args;
      }
      :: !out
  in
  List.iter
    (fun ev ->
      last_ts := ev.ts;
      match ev.phase with
      | Instant -> ()
      | Begin ->
        stack :=
          { f_name = ev.name; f_begin = ev.ts; f_args = ev.args; f_child = 0. }
          :: !stack
      | End -> (
        match !stack with
        | frame :: rest when frame.f_name = ev.name ->
          stack := rest;
          close frame ev.ts
        | _ ->
          (* An End with no matching open Begin: its Begin predates the
             retained window (ring overflow). Skip it. *)
          incr orphans))
    evs;
  (* Close any span still open at the end of the stream at the last seen
     timestamp, so a trace cut mid-run still renders. *)
  let rec drain () =
    match !stack with
    | [] -> ()
    | frame :: rest ->
      stack := rest;
      close frame !last_ts;
      drain ()
  in
  if not (Float.is_nan !last_ts) then drain ();
  (List.rev !out, !orphans)
