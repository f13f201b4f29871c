(* Every cell is an [Atomic.t], so any domain records into the shared
   registry directly: counters and histogram buckets by fetch-and-add, a
   timer's sum and maximum by compare-and-set. *)

type counter = int Atomic.t

type gauge = float option Atomic.t  (* [None] until first set *)

(* Shared fixed log-scale bucket bounds: powers of 4 starting at 4ns, the
   last bucket unbounded. 20 buckets span 4ns .. ~275s, plenty for anything
   this repository times. *)
let n_buckets = 21

let bucket_bounds =
  Array.init n_buckets (fun i ->
      if i = n_buckets - 1 then infinity else 4e-9 *. (4.0 ** float_of_int i))

let bucket_of d =
  let i = ref 0 in
  while !i < n_buckets - 1 && d > bucket_bounds.(!i) do
    incr i
  done;
  !i

(* No count cell: the count is the sum of the buckets. *)
type timer = {
  t_name : string;
  t_sum : float Atomic.t;
  t_max : float Atomic.t;
  t_buckets : int Atomic.t array;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Timer of timer

(* --- registry --- *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* The registry hashtable is shared by every domain (worker domains
   register span timers on first use), so all structural access — find,
   replace, iterate — happens under this lock. Recording into an already
   obtained handle does not touch the table. *)
let registry_lock = Mutex.create ()

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Two independent switches share the fast path: [flag] gates metric
   recording, [tracer] receives event-level begin/end/instant callbacks.
   [hot] is their disjunction, maintained on every switch flip, so the
   timed-region combinators ([time], [with_span]) still pay exactly one
   load-and-branch when both are off. *)

type span_args = (string * string) list

type tracer = {
  on_begin : string -> (unit -> span_args) -> unit;
  on_end : string -> unit;
  on_instant : string -> (unit -> span_args) -> unit;
}

let flag = ref false

let tracer : tracer option ref = ref None

let hot = ref false

let refresh_hot () = hot := !flag || !tracer <> None

let set_enabled b =
  flag := b;
  refresh_hot ()

let is_enabled () = !flag

let enabled f =
  let saved = !flag in
  set_enabled true;
  Fun.protect ~finally:(fun () -> set_enabled saved) f

let set_tracer t =
  tracer := t;
  refresh_hot ()

let has_tracer () = !tracer <> None

let current_tracer () = !tracer

let with_tracer t f =
  let saved = !tracer in
  set_tracer (Some t);
  Fun.protect ~finally:(fun () -> set_tracer saved) f

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Timer _ -> "timer"

let register name make extract =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
    (match extract m with
     | Some x -> x
     | None ->
       invalid_arg
         (Printf.sprintf "Metrics: %S is already registered as a %s" name
            (kind_name m)))
  | None ->
    let x, m = make () in
    Hashtbl.replace registry name m;
    x

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = Atomic.make None in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let timer name =
  register name
    (fun () ->
      let t =
        { t_name = name;
          t_sum = Atomic.make 0.0;
          t_max = Atomic.make 0.0;
          t_buckets = Array.init n_buckets (fun _ -> Atomic.make 0) }
      in
      (t, Timer t))
    (function Timer t -> Some t | _ -> None)

(* --- recording --- *)

(* The disabled path stays one load-and-branch. *)

let add c n = if !flag then ignore (Atomic.fetch_and_add c n)

let incr c = add c 1

let set g v = if !flag then Atomic.set g (Some v)

(* Float cells have no fetch-and-add: retry until no other domain wrote
   between the read and the swap. The comparison is physical, on the very
   box that was read. *)
let rec add_float cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then add_float cell d

let rec raise_to cell d =
  let cur = Atomic.get cell in
  if d > cur && not (Atomic.compare_and_set cell cur d) then raise_to cell d

let observe t d =
  if !flag then begin
    let d = Float.max 0.0 d in
    add_float t.t_sum d;
    raise_to t.t_max d;
    Atomic.incr t.t_buckets.(bucket_of d)
  end

let no_args () = []

let trace_begin name args =
  match !tracer with Some tr -> tr.on_begin name args | None -> ()

let trace_end name =
  match !tracer with Some tr -> tr.on_end name | None -> ()

let time ?(args = no_args) t f =
  if not !hot then f ()
  else begin
    trace_begin t.t_name args;
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        observe t (Clock.elapsed_since start);
        trace_end t.t_name)
      f
  end

let instant name args =
  match !tracer with Some tr -> tr.on_instant name args | None -> ()

(* --- spans --- *)

(* One span stack per domain: a worker's spans nest under its own paths
   without racing the main domain's stack. *)
let spans_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let spans () = Domain.DLS.get spans_key

let span_stack () = !(spans ())

let with_span ?(args = no_args) name f =
  if not !hot then f ()
  else begin
    let spans = spans () in
    spans := name :: !spans;
    let path = String.concat "/" (List.rev !spans) in
    let t = timer ("span:" ^ path) in
    trace_begin name args;
    let start = Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        observe t (Clock.elapsed_since start);
        trace_end name;
        match !spans with
        | _ :: rest -> spans := rest
        | [] -> ())
      f
  end

(* --- reading --- *)

let counter_value c = Atomic.get c

let gauge_value g = Atomic.get g

type timer_stats = {
  count : int;
  sum : float;
  max : float;
  buckets : (float * int) list;
}

let timer_stats t =
  (* Read each bucket once and derive [count] from those reads: a snapshot
     taken while other domains record still has its +Inf bucket equal to
     its count, which exposition validation requires. *)
  let buckets =
    List.init n_buckets (fun i ->
        (bucket_bounds.(i), Atomic.get t.t_buckets.(i)))
  in
  let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  { count; sum = Atomic.get t.t_sum; max = Atomic.get t.t_max; buckets }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  timers : (string * timer_stats) list;
}

let snapshot () =
  let counters = ref [] and gauges = ref [] and timers = ref [] in
  locked (fun () ->
      Hashtbl.iter
        (fun name metric ->
          match metric with
          | Counter c -> counters := (name, Atomic.get c) :: !counters
          | Gauge g ->
            Option.iter (fun v -> gauges := (name, v) :: !gauges) (Atomic.get g)
          | Timer t -> timers := (name, timer_stats t) :: !timers)
        registry);
  let by_name (a, _) (b, _) = compare a b in
  { counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    timers = List.sort by_name !timers }

let reset () =
  (* Also unwind the open-span stack: a [reset] inside a [with_span] must
     not leave stale entries that would corrupt the [/]-joined paths of
     every span opened afterwards. The enclosing spans' unwind handlers
     tolerate the empty stack. (Only the calling domain's stack — worker
     domains each own theirs, and resets happen between parallel phases.) *)
  spans () := [];
  locked (fun () ->
      Hashtbl.iter
        (fun _ metric ->
          match metric with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g None
          | Timer t ->
            Atomic.set t.t_sum 0.0;
            Atomic.set t.t_max 0.0;
            Array.iter (fun b -> Atomic.set b 0) t.t_buckets)
        registry)

(* --- JSON --- *)

(* Wolves_cli.Json lives above this library in the dependency order (the CLI
   depends on core which depends on us), so the emitter is inlined: the
   grammar here is tiny and the names are our own. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let snapshot_to_json snap =
  let buf = Buffer.create 1024 in
  let field first key emit_value =
    if not !first then Buffer.add_string buf ",";
    first := false;
    Buffer.add_string buf (Printf.sprintf "\"%s\":" (escape key));
    emit_value ()
  in
  let obj entries emit_one =
    Buffer.add_char buf '{';
    let first = ref true in
    List.iter (fun (key, v) -> field first key (fun () -> emit_one v)) entries;
    Buffer.add_char buf '}'
  in
  let num f =
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"
  in
  Buffer.add_char buf '{';
  let first = ref true in
  field first "bucket_bounds_s" (fun () ->
      (* The shared log-scale bounds, once, so consumers of the per-timer
         bucket maps don't have to re-derive the scale. The unbounded last
         bucket renders as null (JSON has no infinity); it matches the
         "inf" key used in the per-timer maps. *)
      Buffer.add_char buf '[';
      Array.iteri
        (fun i bound ->
          if i > 0 then Buffer.add_char buf ',';
          num bound)
        bucket_bounds;
      Buffer.add_char buf ']');
  field first "counters" (fun () ->
      obj snap.counters (fun v -> Buffer.add_string buf (string_of_int v)));
  field first "gauges" (fun () -> obj snap.gauges num);
  field first "timers" (fun () ->
      obj snap.timers (fun stats ->
          Buffer.add_char buf '{';
          let f = ref true in
          field f "count" (fun () ->
              Buffer.add_string buf (string_of_int stats.count));
          field f "sum_s" (fun () -> num stats.sum);
          field f "max_s" (fun () -> num stats.max);
          field f "buckets" (fun () ->
              obj
                (List.filter_map
                   (fun (bound, n) ->
                     if n = 0 then None
                     else
                       Some
                         ( (if Float.is_finite bound then
                              Printf.sprintf "%.12g" bound
                            else "inf"),
                           n ))
                   stats.buckets)
                (fun n -> Buffer.add_string buf (string_of_int n)));
          Buffer.add_char buf '}'));
  Buffer.add_char buf '}';
  Buffer.contents buf

let dump_json () = snapshot_to_json (snapshot ())
