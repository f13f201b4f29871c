(* A minimal client for the `wolves serve` line protocol (docs/PROTOCOL.md),
   written here rather than taken from the library so that client-side
   costs stay fixed while the server's code changes. Replies are returned
   as the exact bytes the server sent. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

exception Closed

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec send_all fd s off len =
  if len > 0 then
    let k = Unix.write_substring fd s off len in
    send_all fd s (off + k) (len - k)

(* Appends one line, terminator included, to [out]. *)
let read_line t out =
  let rec go () =
    if t.pos = t.len then begin
      t.pos <- 0;
      t.len <- Unix.read t.fd t.buf 0 (Bytes.length t.buf);
      if t.len = 0 then raise Closed
    end;
    match Bytes.index_from_opt t.buf t.pos '\n' with
    | Some i when i < t.len ->
        Buffer.add_subbytes out t.buf t.pos (i + 1 - t.pos);
        t.pos <- i + 1
    | _ ->
        Buffer.add_subbytes out t.buf t.pos (t.len - t.pos);
        t.pos <- t.len;
        go ()
  in
  go ()

let payload_count head =
  match String.split_on_char ' ' (String.trim head) with
  | [ "OK"; n ] -> int_of_string_opt n
  | _ -> None

(* Sends one request line; returns the whole framed reply. Raises
   [Unix.Unix_error] or [Closed] on transport failure. *)
let request t line =
  send_all t.fd (line ^ "\n") 0 (String.length line + 1);
  let out = Buffer.create 256 in
  read_line t out;
  (match payload_count (Buffer.contents out) with
  | Some n ->
      for _ = 1 to n do
        read_line t out
      done
  | None -> ());
  Buffer.contents out

let is_ok reply = String.length reply >= 3 && String.sub reply 0 3 = "OK "

(* Payload lines of an OK reply, terminators stripped. *)
let payload reply =
  match String.split_on_char '\n' reply with
  | _ :: rest -> List.filter (fun l -> l <> "") rest
  | [] -> []
