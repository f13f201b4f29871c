open Wolves_core

type correction =
  | Criterion of Corrector.criterion
  | Deadline_ms of float

type request =
  | Ping
  | List_ids
  | Stats
  | Health
  | Metrics
  | Trace
  | Quit
  | Validate of string
  | Correct of string * correction option
  | Query of string * string
  | Lint of string
  | Analyze of string

type reply =
  | Ok_lines of string list
  | Err of string * string
  | Overloaded of int

let sanitize s =
  let s =
    String.map
      (fun c ->
        match c with
        | '\n' | '\r' | '\t' -> ' '
        | c when Char.code c < 32 || Char.code c > 126 -> '?'
        | c -> c)
      s
  in
  if String.length s > 200 then String.sub s 0 200 ^ "..." else s

(* First space-separated token and the raw remainder (leading spaces kept
   on neither side of the cut). *)
let next_token s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && s.[!i] = ' ' do incr i done;
  let j = ref !i in
  while !j < n && s.[!j] <> ' ' do incr j done;
  if !j = !i then None
  else Some (String.sub s !i (!j - !i), String.sub s !j (n - !j))

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let usage = function
  | "PING" | "LIST" | "STATS" | "HEALTH" | "METRICS" | "TRACE" | "QUIT" ->
      "takes no argument"
  | "VALIDATE" -> "usage: VALIDATE <id>"
  | "CORRECT" -> "usage: CORRECT <id> [weak|strong|optimal | DEADLINE <ms>]"
  | "QUERY" -> "usage: QUERY <id> <expr>"
  | "LINT" -> "usage: LINT <id>"
  | "ANALYZE" -> "usage: ANALYZE <id>"
  | _ -> "unusable"

let parse line =
  match next_token line with
  | None -> Error ("bad-request", "empty request line")
  | Some (cmd, rest) -> (
      let c = String.uppercase_ascii cmd in
      let bad () = Error ("bad-request", usage c) in
      match c with
      | "PING" | "LIST" | "STATS" | "HEALTH" | "METRICS" | "TRACE" | "QUIT"
        -> (
          match words rest with
          | [] ->
              Ok
                (match c with
                | "PING" -> Ping
                | "LIST" -> List_ids
                | "STATS" -> Stats
                | "HEALTH" -> Health
                | "METRICS" -> Metrics
                | "TRACE" -> Trace
                | _ -> Quit)
          | _ -> bad ())
      | "VALIDATE" | "LINT" | "ANALYZE" -> (
          match words rest with
          | [ id ] ->
              Ok
                (match c with
                | "VALIDATE" -> Validate id
                | "LINT" -> Lint id
                | _ -> Analyze id)
          | _ -> bad ())
      | "CORRECT" -> (
          match words rest with
          | [ id ] -> Ok (Correct (id, None))
          | [ id; crit ] -> (
              match Corrector.criterion_of_string (String.lowercase_ascii crit) with
              | Some crit -> Ok (Correct (id, Some (Criterion crit)))
              | None ->
                  Error
                    ( "bad-request",
                      Printf.sprintf "unknown criterion %s (%s)" (sanitize crit)
                        (usage c) ))
          | [ id; kw; ms ] when String.uppercase_ascii kw = "DEADLINE" -> (
              match float_of_string_opt ms with
              | Some v when v >= 0. && Float.is_finite v ->
                  Ok (Correct (id, Some (Deadline_ms v)))
              | _ ->
                  Error
                    ( "bad-request",
                      "DEADLINE wants a non-negative millisecond count" ))
          | _ -> bad ())
      | "QUERY" -> (
          match next_token rest with
          | None -> bad ()
          | Some (id, expr) ->
              let expr = String.trim expr in
              if expr = "" then bad () else Ok (Query (id, expr)))
      | _ -> Error ("unknown-command", sanitize cmd))

(* Payload lines come from the library (task names, diagnostics) and go out
   verbatim, except that CR and LF fold to a space so framing survives. The
   reply is sized exactly first, then filled in one pass that copies and
   folds each byte: one allocation, no intermediate buffer or final copy.
   The exact sizing keeps every index in bounds, so the copy loop skips the
   checks. *)
let render = function
  | Ok_lines lines ->
      let count = ref 0 and size = ref 0 in
      List.iter
        (fun l ->
          incr count;
          size := !size + String.length l + 1)
        lines;
      let header = "OK " ^ string_of_int !count ^ "\n" in
      let hlen = String.length header in
      let b = Bytes.create (hlen + !size) in
      Bytes.blit_string header 0 b 0 hlen;
      let pos = ref hlen in
      List.iter
        (fun l ->
          let p = !pos and len = String.length l in
          for i = 0 to len - 1 do
            Bytes.unsafe_set b (p + i)
              (match String.unsafe_get l i with '\n' | '\r' -> ' ' | c -> c)
          done;
          Bytes.unsafe_set b (p + len) '\n';
          pos := p + len + 1)
        lines;
      Bytes.unsafe_to_string b
  | Err (code, msg) -> Printf.sprintf "ERR %s %s\n" code (sanitize msg)
  | Overloaded ms -> Printf.sprintf "OVERLOADED %d\n" ms

let kind = function
  | Ping -> "ping"
  | List_ids -> "list"
  | Stats -> "stats"
  | Health -> "health"
  | Metrics -> "metrics"
  | Trace -> "trace"
  | Quit -> "quit"
  | Validate _ -> "validate"
  | Correct _ -> "correct"
  | Query _ -> "query"
  | Lint _ -> "lint"
  | Analyze _ -> "analyze"

let parse_reply_stream s =
  let n = String.length s in
  (* [line_at pos] = Some (line, next_pos) when a full LF-terminated line
     starts at [pos]. *)
  let line_at pos =
    match String.index_from_opt s pos '\n' with
    | None -> None
    | Some i -> Some (String.sub s pos (i - pos), i + 1)
  in
  let rec go acc pos =
    if pos >= n then Ok (List.rev acc, "")
    else
      match line_at pos with
      | None -> Ok (List.rev acc, String.sub s pos (n - pos))
      | Some (line, next) -> (
          match words line with
          | [ "OK"; count ] -> (
              match int_of_string_opt count with
              | Some k when k >= 0 ->
                  let rec payload got left p =
                    if left = 0 then go (Ok_lines (List.rev got) :: acc) p
                    else
                      match line_at p with
                      | None ->
                          (* frame cut mid-payload: everything from the OK
                             header on is the unfinished tail *)
                          Ok (List.rev acc, String.sub s pos (n - pos))
                      | Some (l, p') -> payload (l :: got) (left - 1) p'
                  in
                  payload [] k next
              | _ -> Error (Printf.sprintf "malformed OK header %S" line))
          | "ERR" :: code :: rest ->
              go (Err (code, String.concat " " rest) :: acc) next
          | [ "OVERLOADED"; ms ] -> (
              match int_of_string_opt ms with
              | Some v -> go (Overloaded v :: acc) next
              | None -> Error (Printf.sprintf "malformed OVERLOADED %S" line))
          | _ -> Error (Printf.sprintf "unparseable reply line %S" line))
  in
  go [] 0
