(* Closed-loop load from one process: [clients] domains, each owning one
   connection and sending its next request as soon as the previous reply
   arrives. The domains take requests from the shared list in order, so
   any run of consecutive indices has the list's fixed mix of request
   kinds. *)

module Clock = Wolves_obs.Clock

type sample = {
  idx : int;  (** position in the request list *)
  sent : float;
  fin : float;
  gap : float;  (** the client's own time between its previous reply and this send *)
}

type tally = {
  mutable samples : sample list;
  mutable failed : int;  (** ERR, OVERLOADED or transport errors *)
  mutable bytes : int;
  replies : (string, (string * int ref) list) Hashtbl.t;
      (** request line -> distinct replies with their counts *)
  mutable problems : string list;
}

let tally () =
  { samples = []; failed = 0; bytes = 0; replies = Hashtbl.create 1024; problems = [] }

let note t msg = if List.length t.problems < 5 then t.problems <- msg :: t.problems

let add replies line reply n =
  let seen = Option.value ~default:[] (Hashtbl.find_opt replies line) in
  match List.assoc_opt reply seen with
  | Some m -> m := !m + n
  | None -> Hashtbl.replace replies line ((reply, ref n) :: seen)

(* One exchange on the domain's connection, reconnecting after a transport
   error. *)
let exchange t port conn (r : Corpus.req) =
  match Wire.request !conn r.line with
  | reply ->
      if not (Wire.is_ok reply) then begin
        t.failed <- t.failed + 1;
        note t (r.line ^ " -> " ^ String.trim reply)
      end;
      t.bytes <- t.bytes + String.length reply;
      add t.replies r.line reply 1
  | exception (Unix.Unix_error _ | Wire.Closed as e) ->
      t.failed <- t.failed + 1;
      note t (r.line ^ " -> " ^ Printexc.to_string e);
      Wire.close !conn;
      conn := Wire.connect port

(* Sends until [until], starting at request [first]. A single client runs
   on the calling domain: with no second domain, its minor collections
   never stop the world. *)
let closed_loop ~port ~clients ~(reqs : Corpus.req array) ~first ~until =
  let next = Atomic.make first in
  let client () =
    let t = tally () and conn = ref (Wire.connect port) in
    let prev = ref (Clock.now ()) in
    while Clock.now () < until do
      let sent = Clock.now () in
      let idx = Atomic.fetch_and_add next 1 in
      exchange t port conn reqs.(idx mod Array.length reqs);
      let fin = Clock.now () in
      t.samples <- { idx; sent; fin; gap = sent -. !prev } :: t.samples;
      prev := fin
    done;
    Wire.close !conn;
    t
  in
  if clients = 1 then [ client () ]
  else List.init clients (fun _ -> Domain.spawn client) |> List.map Domain.join

let samples ts =
  List.concat_map (fun t -> t.samples) ts
  |> List.sort (fun a b -> compare a.idx b.idx)
  |> Array.of_list

let sum f ts = List.fold_left (fun a t -> a + f t) 0 ts

(* The samples of the whole rounds of the request list (see
   Corpus.round) sent at or after [from]; all of those samples when they
   do not fill one round. *)
let whole_rounds ~round ~from (s : sample array) =
  let after = List.filter (fun x -> x.sent >= from) (Array.to_list s) in
  let first = List.fold_left (fun a x -> min a x.idx) max_int after in
  let last = List.fold_left (fun a x -> max a x.idx) (-1) after in
  let r0 = (first + round - 1) / round * round and r1 = (last + 1) / round * round in
  Array.of_list
    (if r1 <= r0 then after else List.filter (fun x -> x.idx >= r0 && x.idx < r1) after)

(* Consecutive windows of whole rounds, each spanning at least [min_s]
   seconds; a trailing window shorter than that is dropped, and a run too
   short for one window is a window of its own. Reporting the median over
   windows keeps a burst of contention from other processes on the
   machine, which hits a few windows, out of the result. *)
let windows ~round ~min_s (s : sample array) =
  let n = Array.length s in
  let rec go acc start =
    let rec grow stop =
      if stop + round > n then None
      else
        let stop = stop + round in
        if s.(stop - 1).fin -. s.(start).sent >= min_s then Some stop else grow stop
    in
    match grow start with
    | None -> List.rev acc
    | Some stop -> go (Array.sub s start (stop - start) :: acc) stop
  in
  match go [] 0 with [] -> [ s ] | ws -> ws

(* Requests per second over the samples' span, from first send to last
   reply. *)
let throughput (s : sample array) =
  let t0 = Array.fold_left (fun a x -> Float.min a x.sent) infinity s in
  let t1 = Array.fold_left (fun a x -> Float.max a x.fin) neg_infinity s in
  float_of_int (Array.length s) /. (t1 -. t0)

let latencies (s : sample array) = Array.map (fun x -> x.fin -. x.sent) s
let gaps (s : sample array) = Array.map (fun x -> x.gap) s

(* All replies seen, merged across domains. *)
let replies ts =
  let all = Hashtbl.create 1024 in
  List.iter
    (fun t ->
      Hashtbl.iter (fun line seen -> List.iter (fun (reply, n) -> add all line reply !n) seen) t.replies)
    ts;
  all
