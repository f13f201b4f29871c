(* Tests for the provenance query server: protocol framing, the chaos
   fault-injection property (replies byte-identical to direct library calls
   under every injected network pathology), the socket lifecycle (overload
   shedding, slow-loris, graceful drain), and the CLI binary's serve/drain
   and exit-code behaviour (satellites: resume warning on stderr, non-zero
   exit when an artifact write fails, SIGTERM drain exits 0). *)

open Wolves_workflow
module Net_io = Wolves_server.Net_io
module Protocol = Wolves_server.Protocol
module Service = Wolves_server.Service
module Server = Wolves_server.Server
module Client = Wolves_server.Client
module C = Wolves_core.Corrector
module Olog = Wolves_obs.Log
module Prom = Wolves_obs.Prom
module Ring = Wolves_trace.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let reply_t =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (String.escaped (Protocol.render r)))
    ( = )

let request_t =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Protocol.kind r))
    ( = )

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

(* A 21-task chain whose composite omits the middle task: unsound with 20
   members, which is past the optimal corrector's exact-search bound — the
   isolation tests drive the resulting Invalid_argument through the server. *)
let big_view () =
  let names = List.init 21 (fun i -> Printf.sprintf "t%02d" i) in
  let deps =
    List.init 20 (fun i ->
        (Printf.sprintf "t%02d" i, Printf.sprintf "t%02d" (i + 1)))
  in
  let spec = Spec.of_tasks_exn ~name:"big-chain" names deps in
  let members = List.filter (fun n -> n <> "t10") names in
  View.make_exn spec [ ("C", members); ("solo", [ "t10" ]) ]

let service =
  lazy
    (Service.load
       [ ("fig1", snd (Examples.figure1 ()));
         ("fig3", snd (Examples.figure3 ()));
         ("big", big_view ()) ])

let server () = Server.create (Lazy.force service)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let check_parse line expected =
  match Protocol.parse line with
  | Ok r -> Alcotest.check request_t line expected r
  | Error (code, msg) ->
      Alcotest.failf "%s: unexpected parse error %s %s" line code msg

let check_parse_err line code =
  match Protocol.parse line with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" line
  | Error (c, _) -> check_string line code c

let test_parse () =
  check_parse "PING" Protocol.Ping;
  check_parse "ping" Protocol.Ping;
  check_parse "  LiSt  " Protocol.List_ids;
  check_parse "STATS" Protocol.Stats;
  check_parse "HEALTH" Protocol.Health;
  check_parse "METRICS" Protocol.Metrics;
  check_parse "  metrics " Protocol.Metrics;
  check_parse "TRACE" Protocol.Trace;
  check_parse "trace" Protocol.Trace;
  check_parse "QUIT" Protocol.Quit;
  check_parse "VALIDATE fig1" (Protocol.Validate "fig1");
  check_parse " validate   fig1 " (Protocol.Validate "fig1");
  check_parse "LINT a" (Protocol.Lint "a");
  check_parse "ANALYZE a" (Protocol.Analyze "a");
  check_parse "CORRECT x" (Protocol.Correct ("x", None));
  check_parse "CORRECT x optimal"
    (Protocol.Correct ("x", Some (Protocol.Criterion C.Optimal)));
  check_parse "CORRECT x WEAK"
    (Protocol.Correct ("x", Some (Protocol.Criterion C.Weak)));
  check_parse "CORRECT x DEADLINE 250"
    (Protocol.Correct ("x", Some (Protocol.Deadline_ms 250.)));
  check_parse "CORRECT x deadline 0"
    (Protocol.Correct ("x", Some (Protocol.Deadline_ms 0.)));
  check_parse "QUERY id ancestors('a') - {'b'}"
    (Protocol.Query ("id", "ancestors('a') - {'b'}"));
  check_parse_err "" "bad-request";
  check_parse_err "   " "bad-request";
  check_parse_err "PING extra" "bad-request";
  check_parse_err "METRICS now" "bad-request";
  check_parse_err "TRACE x" "bad-request";
  check_parse_err "VALIDATE" "bad-request";
  check_parse_err "VALIDATE a b" "bad-request";
  check_parse_err "CORRECT x bogus" "bad-request";
  check_parse_err "CORRECT x DEADLINE -1" "bad-request";
  check_parse_err "CORRECT x DEADLINE nan" "bad-request";
  check_parse_err "QUERY id" "bad-request";
  check_parse_err "FROB" "unknown-command";
  check_parse_err "\xffgarbage\x01 x" "unknown-command"

let test_render () =
  check_string "ok framing" "OK 2\na\nb\n"
    (Protocol.render (Protocol.Ok_lines [ "a"; "b" ]));
  check_string "empty ok" "OK 0\n" (Protocol.render (Protocol.Ok_lines []));
  check_string "newline folding" "OK 1\nx y\n"
    (Protocol.render (Protocol.Ok_lines [ "x\ny" ]));
  check_string "lone CR" "OK 1\n \n" (Protocol.render (Protocol.Ok_lines [ "\r" ]));
  check_string "CRLF folds to two spaces" "OK 1\na  b\n"
    (Protocol.render (Protocol.Ok_lines [ "a\r\nb" ]));
  check_string "empty line" "OK 1\n\n" (Protocol.render (Protocol.Ok_lines [ "" ]));
  check_string "other control bytes verbatim" "OK 1\na\001\tb\n"
    (Protocol.render (Protocol.Ok_lines [ "a\001\tb" ]));
  check_string "err line" "ERR code a message\n"
    (Protocol.render (Protocol.Err ("code", "a message")));
  check_string "err sanitized" "ERR c a?b c\n"
    (Protocol.render (Protocol.Err ("c", "a\x01b\nc")));
  check_string "overloaded" "OVERLOADED 100\n"
    (Protocol.render (Protocol.Overloaded 100));
  let long = String.make 300 'z' in
  let rendered = Protocol.render (Protocol.Err ("c", long)) in
  check_bool "err truncated" true (String.length rendered < 250)

(* The Buffer renderer [Protocol.render] replaced, kept as the reference for
   [Ok_lines]: a line holding CR or LF is folded with [String.map], any
   other line is copied as is. *)
let reference_render_ok lines =
  let oneline s =
    if String.contains s '\n' || String.contains s '\r' then
      String.map (function '\n' | '\r' -> ' ' | c -> c) s
    else s
  in
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "OK %d\n" (List.length lines));
  List.iter
    (fun l ->
      Buffer.add_string b (oneline l);
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

let render_matches_reference =
  let line =
    QCheck2.Gen.(
      map (String.concat "")
        (list_size (int_range 0 8)
           (oneof
              [ oneofl [ "\r\n"; "\r"; "\n"; "" ];
                map (String.make 1) (map Char.chr (int_range 0 31));
                map (String.make 1) char;
                string_size ~gen:printable (int_range 1 6) ])))
  in
  QCheck2.Test.make ~name:"render = reference renderer" ~count:500
    ~print:QCheck2.Print.(list string)
    QCheck2.Gen.(list_size (int_range 0 30) line)
    (fun lines ->
      Protocol.render (Protocol.Ok_lines lines) = reference_render_ok lines)

let test_parse_reply_stream () =
  let replies =
    [ Protocol.Ok_lines [ "pong" ];
      Protocol.Err ("unknown-id", "no workflow x loaded (try LIST)");
      Protocol.Overloaded 50;
      Protocol.Ok_lines [];
      Protocol.Ok_lines [ "a"; "b"; "c" ] ]
  in
  let stream = String.concat "" (List.map Protocol.render replies) in
  (match Protocol.parse_reply_stream stream with
  | Ok (got, leftover) ->
      Alcotest.(check (list reply_t)) "round trip" replies got;
      check_string "no leftover" "" leftover
  | Error e -> Alcotest.failf "round trip: %s" e);
  (* a frame cut mid-payload leaves the whole frame as the tail *)
  let cut = String.sub stream 0 (String.length stream - 3) in
  (match Protocol.parse_reply_stream cut with
  | Ok (got, leftover) ->
      check_int "complete frames before the cut" 4 (List.length got);
      check_bool "tail starts at the cut frame" true
        (String.length leftover > 0 && String.sub leftover 0 2 = "OK")
  | Error e -> Alcotest.failf "cut stream: %s" e);
  (match Protocol.parse_reply_stream "NONSENSE line\n" with
  | Ok _ -> Alcotest.fail "protocol violation not detected"
  | Error _ -> ());
  (* a 40k-line reply round-trips, and a cut in its middle leaves the whole
     frame as the tail; at this size a parser that recounts the payload per
     line takes about a second *)
  let big = Protocol.Ok_lines (List.init 40_000 (Printf.sprintf "task-%d")) in
  let frame = Protocol.render big in
  (match
     Protocol.parse_reply_stream
       (frame ^ Protocol.render (Protocol.Ok_lines [ "x" ]))
   with
  | Ok ([ got; _ ], "") -> Alcotest.check reply_t "40k-line round trip" big got
  | Ok (got, _) -> Alcotest.failf "40k lines: %d replies" (List.length got)
  | Error e -> Alcotest.failf "40k lines: %s" e);
  let cut = String.sub frame 0 (String.length frame / 2) in
  match Protocol.parse_reply_stream cut with
  | Ok (got, leftover) ->
      check_int "no complete frame before the cut" 0 (List.length got);
      check_string "tail is the cut frame" cut leftover
  | Error e -> Alcotest.failf "cut 40k-line frame: %s" e

(* ------------------------------------------------------------------ *)
(* Service                                                             *)
(* ------------------------------------------------------------------ *)

let test_service_load () =
  let t = Lazy.force service in
  check_int "corpus size" 3 (Service.size t);
  Alcotest.(check (list string)) "sorted ids" [ "big"; "fig1"; "fig3" ]
    (Service.ids t);
  check_bool "find hit" true (Service.find t "fig1" <> None);
  check_bool "find miss" true (Service.find t "nope" = None);
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Service.load: duplicate id x") (fun () ->
      ignore
        (Service.load
           [ ("x", snd (Examples.figure1 ())); ("x", snd (Examples.figure1 ())) ]));
  Alcotest.check_raises "empty id" (Invalid_argument "Service.load: empty id")
    (fun () -> ignore (Service.load [ ("", snd (Examples.figure1 ())) ]))

let test_service_handle () =
  let t = Lazy.force service in
  Alcotest.check reply_t "ping" (Protocol.Ok_lines [ "pong" ])
    (Service.handle t Protocol.Ping);
  (match Service.handle t (Protocol.Validate "fig3") with
  | Protocol.Ok_lines lines ->
      check_bool "fig3 unsound" true (List.mem "sound false" lines)
  | r -> Alcotest.failf "validate fig3: %s" (Protocol.render r));
  (match Service.handle t (Protocol.Validate "nope") with
  | Protocol.Err ("unknown-id", _) -> ()
  | r -> Alcotest.failf "unknown id: %s" (Protocol.render r));
  (* STATS/HEALTH/METRICS/TRACE are owned by the server, not the library *)
  (match Service.handle t Protocol.Stats with
  | Protocol.Err ("bad-request", _) -> ()
  | r -> Alcotest.failf "stats via service: %s" (Protocol.render r));
  (match Service.handle t Protocol.Metrics with
  | Protocol.Err ("bad-request", _) -> ()
  | r -> Alcotest.failf "metrics via service: %s" (Protocol.render r));
  (match Service.handle t Protocol.Trace with
  | Protocol.Err ("bad-request", _) -> ()
  | r -> Alcotest.failf "trace via service: %s" (Protocol.render r));
  (* isolation: the oversized-optimal Invalid_argument becomes a typed error *)
  (match Service.handle t (Protocol.Correct ("big", Some (Protocol.Criterion C.Optimal))) with
  | Protocol.Err ("bad-request", _) -> ()
  | r -> Alcotest.failf "oversized optimal: %s" (Protocol.render r));
  (* a pre-charged deadline degrades to the weak floor deterministically *)
  match Service.handle ~spent_s:999. t
          (Protocol.Correct ("fig3", Some (Protocol.Deadline_ms 60000.)))
  with
  | Protocol.Ok_lines lines ->
      check_bool "queue-wait pre-charge degrades to weak" true
        (List.exists
           (fun l ->
             String.length l >= 5 && String.sub l 0 5 = "split"
             && String.length l > 10
             &&
             let words = String.split_on_char ' ' l in
             List.exists (( = ) "weak") words)
           lines)
  | r -> Alcotest.failf "precharged correct: %s" (Protocol.render r)

(* ------------------------------------------------------------------ *)
(* Chaos: serve_connection over fault-injecting in-memory connections   *)
(* ------------------------------------------------------------------ *)

(* The canonical session: one request of every library-served kind, errors
   included, QUIT last. Correction deadlines are 0 or generous so every
   tier decision is deterministic on both sides of the comparison. *)
let session =
  [ "PING";
    "LIST";
    "VALIDATE fig1";
    "VALIDATE nosuch";
    "CORRECT fig3 weak";
    "CORRECT fig1 DEADLINE 0";
    "CORRECT fig3 DEADLINE 60000";
    "QUERY fig1 ancestors('12:Display Tree')";
    "LINT fig3";
    "ANALYZE fig1";
    "CORRECT fig3 bogus";
    "FROB nonsense";
    "";
    "QUIT" ]

let session_input = String.concat "" (List.map (fun l -> l ^ "\n") session)

(* Expected wire bytes for each session line: exactly what the server's own
   dispatch produces for a direct call — Service.handle and serve_connection
   share it, which is what makes byte-identity meaningful. *)
let reply_for srv line =
  if String.trim line = "" then None
  else
    Some
      (Protocol.render
         (match Protocol.parse line with
         | Error (code, msg) -> Protocol.Err (code, msg)
         | Ok req -> Server.handle_request srv req))

(* Replies owed for the first [n] input bytes: one per request line whose
   terminator lies within the prefix. *)
let expected_for_prefix srv n =
  let b = Buffer.create 1024 in
  let pos = ref 0 in
  List.iter
    (fun line ->
      let finish = !pos + String.length line + 1 in
      if finish <= n then
        Option.iter (Buffer.add_string b) (reply_for srv line);
      pos := finish)
    session;
  Buffer.contents b

let run_session srv ?fault input =
  let out = Buffer.create 4096 in
  let conn = Net_io.of_string input out in
  let conn, inj =
    match fault with
    | None -> (conn, { Net_io.received = 0; sent = 0; fired = false })
    | Some f -> Net_io.faulty f conn
  in
  Server.serve_connection srv conn;
  (Buffer.contents out, inj)

let test_chaos_clean_and_short () =
  let srv = server () in
  let expected = expected_for_prefix srv (String.length session_input) in
  check_bool "expected output non-trivial" true (String.length expected > 200);
  let clean, _ = run_session srv session_input in
  check_string "no fault: byte-identical to direct calls" expected clean;
  (* short reads and short writes change chunking, never bytes *)
  let short_r, inj_r = run_session srv ~fault:Net_io.Short_reads session_input in
  check_string "short reads: byte-identical" expected short_r;
  check_bool "short-read fault fired" true inj_r.Net_io.fired;
  let short_w, inj_w = run_session srv ~fault:Net_io.Short_writes session_input in
  check_string "short writes: byte-identical" expected short_w;
  check_bool "short-write fault fired" true inj_w.Net_io.fired;
  (* CRLF clients get the same bytes back *)
  let crlf = String.concat "" (List.map (fun l -> l ^ "\r\n") session) in
  let crlf_out, _ = run_session srv crlf in
  check_string "CRLF session: byte-identical" expected crlf_out

(* Sweep a byte-offset fault across the whole session: at EVERY cut point
   the server must answer exactly the requests whose bytes arrived whole. *)
let test_chaos_disconnect_sweep () =
  let srv = server () in
  let len = String.length session_input in
  let n = ref 0 in
  while !n <= len do
    let out, _ =
      run_session srv ~fault:(Net_io.Disconnect_after_recv !n) session_input
    in
    check_string
      (Printf.sprintf "disconnect after %d bytes" !n)
      (expected_for_prefix srv !n)
      out;
    n := !n + 3
  done;
  let out, _ =
    run_session srv ~fault:(Net_io.Disconnect_after_recv len) session_input
  in
  check_string "disconnect at end = clean run"
    (expected_for_prefix srv len)
    out

let timeout_line =
  Protocol.render (Protocol.Err ("timeout", "no complete request within deadline"))

let test_chaos_stall_sweep () =
  let srv = server () in
  let len = String.length session_input in
  let n = ref 0 in
  while !n < len do
    let out, inj =
      run_session srv ~fault:(Net_io.Stall_after_recv !n) session_input
    in
    check_bool (Printf.sprintf "stall at %d fired" !n) true inj.Net_io.fired;
    check_string
      (Printf.sprintf "stall after %d bytes" !n)
      (expected_for_prefix srv !n ^ timeout_line)
      out;
    n := !n + 3
  done

let test_chaos_send_error_sweep () =
  let srv = server () in
  let expected = expected_for_prefix srv (String.length session_input) in
  let total = String.length expected in
  let n = ref 0 in
  while !n < total do
    let out, inj =
      run_session srv ~fault:(Net_io.Error_after_send !n) session_input
    in
    check_bool (Printf.sprintf "send fault at %d fired" !n) true inj.Net_io.fired;
    (* the peer saw a clean prefix of the true reply stream, nothing else *)
    check_string
      (Printf.sprintf "peer reset after %d reply bytes" !n)
      (String.sub expected 0 !n)
      out;
    n := !n + 13
  done;
  let out, _ =
    run_session srv ~fault:(Net_io.Error_after_send total) session_input
  in
  check_string "send fault past the end never fires" expected out

let test_chaos_garbage_sweep () =
  let srv = server () in
  let len = String.length session_input in
  let n = ref 0 in
  while !n <= len do
    let seed = (!n * 7) + 1 in
    let out, _ =
      run_session srv ~fault:(Net_io.Garbage_after_recv (!n, seed)) session_input
    in
    let clean_prefix = expected_for_prefix srv !n in
    (* requests that arrived whole before the corruption are answered
       exactly; whatever follows is still well-formed protocol *)
    check_bool
      (Printf.sprintf "garbage from %d: clean replies are a prefix" !n)
      true
      (String.length out >= String.length clean_prefix
      && String.sub out 0 (String.length clean_prefix) = clean_prefix);
    (match Protocol.parse_reply_stream out with
    | Ok (_, leftover) ->
        check_string
          (Printf.sprintf "garbage from %d: no torn frame" !n)
          "" leftover
    | Error e -> Alcotest.failf "garbage from %d: ill-formed output: %s" !n e);
    n := !n + 5
  done

(* Random scripts x random faults: never crashes, output always well-formed,
   and chunking faults (which drop or corrupt nothing) stay byte-identical. *)
let chaos_random =
  let pool =
    [| "PING"; "LIST"; "VALIDATE fig1"; "VALIDATE fig3"; "VALIDATE nosuch";
       "CORRECT fig3 weak"; "CORRECT fig1 DEADLINE 0"; "LINT fig1";
       "ANALYZE fig3"; "QUERY fig1 ancestors('12:Display Tree')";
       "QUERY fig3 descendants"; "CORRECT"; "FROB x"; "" |]
  in
  let gen =
    QCheck2.Gen.(
      let script =
        list_size (int_range 0 8) (int_range 0 (Array.length pool - 1))
      in
      let fault =
        oneof
          [ return None;
            return (Some Net_io.Short_reads);
            return (Some Net_io.Short_writes);
            map (fun n -> Some (Net_io.Disconnect_after_recv n)) (int_range 0 400);
            map (fun n -> Some (Net_io.Stall_after_recv n)) (int_range 0 400);
            map (fun n -> Some (Net_io.Error_after_send n)) (int_range 0 2000);
            map
              (fun (n, s) -> Some (Net_io.Garbage_after_recv (n, s)))
              (pair (int_range 0 400) (int_range 0 1000)) ]
      in
      pair script fault)
  in
  QCheck2.Test.make ~name:"chaos: random scripts x faults stay well-formed"
    ~count:60 gen (fun (script, fault) ->
      let srv = server () in
      let lines = List.map (fun i -> pool.(i)) script @ [ "QUIT" ] in
      let input = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let out, _ = run_session srv ?fault input in
      (match Protocol.parse_reply_stream out with
      | Ok _ -> ()
      | Error e -> QCheck2.Test.fail_reportf "ill-formed output: %s" e);
      match fault with
      | None | Some Net_io.Short_reads | Some Net_io.Short_writes ->
          let expected =
            String.concat ""
              (List.filter_map
                 (fun l ->
                   if String.trim l = "" then None
                   else
                     Some
                       (Protocol.render
                          (match Protocol.parse l with
                          | Error (c, m) -> Protocol.Err (c, m)
                          | Ok r -> Server.handle_request srv r)))
                 lines)
          in
          if out <> expected then
            QCheck2.Test.fail_reportf
              "chunking fault changed bytes:\nexpected %S\ngot      %S" expected
              out;
          true
      | Some _ -> true)

(* Isolation at the connection level: a raising request costs one typed ERR
   and the same connection keeps serving. *)
let test_chaos_isolation () =
  let srv = server () in
  let out, _ =
    run_session srv "CORRECT big optimal\nPING\nQUIT\n"
  in
  match Protocol.parse_reply_stream out with
  | Ok ([ Protocol.Err ("bad-request", _); Protocol.Ok_lines [ "pong" ];
          Protocol.Ok_lines [ "bye" ] ], "") -> ()
  | Ok (rs, tail) ->
      Alcotest.failf "isolation: got %d replies, tail %S" (List.length rs) tail
  | Error e -> Alcotest.failf "isolation: %s" e

let test_chaos_too_long () =
  let config = { Server.default_config with max_request_bytes = 32 } in
  let srv = Server.create ~config (Lazy.force service) in
  let input = "PING\nVALIDATE " ^ String.make 100 'x' ^ "\nPING\n" in
  let out, _ = run_session srv input in
  match Protocol.parse_reply_stream out with
  | Ok ([ Protocol.Ok_lines [ "pong" ]; Protocol.Err ("too-large", _) ], "") ->
      ()
  | Ok (rs, _) ->
      Alcotest.failf "too-long: got %d replies: %S" (List.length rs) out
  | Error e -> Alcotest.failf "too-long: %s" e

(* ------------------------------------------------------------------ *)
(* Chaos x observability: the access log and the trace ring             *)
(* ------------------------------------------------------------------ *)

(* Pull one field's raw value out of a rendered JSONL access-log record.
   Good enough for the fixed field names the server emits (none of whose
   string values contain escapes). *)
let field_value line key =
  let needle = Printf.sprintf "\"%s\":" key in
  let n = String.length line and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = needle then
      let j = i + m in
      if j < n && line.[j] = '"' then
        match String.index_from_opt line (j + 1) '"' with
        | Some k -> Some (String.sub line (j + 1) (k - j - 1))
        | None -> None
      else begin
        let k = ref j in
        while !k < n && line.[!k] <> ',' && line.[!k] <> '}' do incr k done;
        Some (String.sub line j (!k - j))
      end
    else go (i + 1)
  in
  go 0

let access_records buf =
  Buffer.contents buf |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.filter (fun l -> field_value l "event" = Some "request")

(* The tentpole's exactly-once property: under every fault schedule, each
   request the server completed appears exactly once in the access log, in
   order, with an outcome matching its wire reply. The wire may trail the
   log by at most one record (a reply whose send the fault ate), and a
   connection-level timeout error is wire-only by design (no request line
   was ever read). *)
let test_chaos_access_log_exactly_once () =
  let schedules =
    [ ("clean", None);
      ("short reads", Some Net_io.Short_reads);
      ("short writes", Some Net_io.Short_writes);
      ("disconnect", Some (Net_io.Disconnect_after_recv 40));
      ("stall", Some (Net_io.Stall_after_recv 25));
      ("send error", Some (Net_io.Error_after_send 30));
      ("garbage", Some (Net_io.Garbage_after_recv (50, 7))) ]
  in
  List.iter
    (fun (name, fault) ->
      let srv = server () in
      let buf = Buffer.create 4096 in
      let out, _ =
        Olog.with_sink (Olog.buffer_sink buf) (fun () ->
            run_session srv ?fault session_input)
      in
      let frames =
        match Protocol.parse_reply_stream out with
        | Ok (frames, _torn_tail) -> frames
        | Error e -> Alcotest.failf "%s: ill-formed wire output: %s" name e
      in
      (* the stall schedule's trailing timeout error is connection-level *)
      let frames =
        List.filter
          (function Protocol.Err ("timeout", _) -> false | _ -> true)
          frames
      in
      let records = access_records buf in
      List.iter
        (fun l ->
          check_bool
            (Printf.sprintf "%s: record is one JSON object" name)
            true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        records;
      let n_frames = List.length frames and n_logs = List.length records in
      check_bool
        (Printf.sprintf "%s: every wire reply is logged (%d frames, %d logs)"
           name n_frames n_logs)
        true
        (n_logs >= n_frames && n_logs <= n_frames + 1);
      (* outcomes match the wire, frame by frame, in order *)
      List.iteri
        (fun i frame ->
          let record = List.nth records i in
          let want_outcome, detail_key, detail_value =
            match frame with
            | Protocol.Ok_lines lines ->
                ("ok", "payload_lines", string_of_int (List.length lines))
            | Protocol.Err (code, _) -> ("err", "code", code)
            | Protocol.Overloaded ms -> ("overloaded", "retry_after_ms", string_of_int ms)
          in
          check_string
            (Printf.sprintf "%s: reply %d outcome" name i)
            want_outcome
            (Option.value ~default:"<missing>" (field_value record "outcome"));
          check_string
            (Printf.sprintf "%s: reply %d %s" name i detail_key)
            detail_value
            (Option.value ~default:"<missing>" (field_value record detail_key)))
        frames;
      (* request ids are unique and strictly increasing *)
      let ids =
        List.map
          (fun r ->
            match field_value r "req_id" with
            | Some s -> int_of_string s
            | None -> Alcotest.failf "%s: record without req_id: %s" name r)
          records
      in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      check_bool (Printf.sprintf "%s: req_ids strictly increasing" name) true
        (ascending ids))
    schedules

(* Sampled requests must commit their span events contiguously, so the ring
   always reconstructs into balanced per-request trees — even though the
   handler's library spans and the request root come from different code. *)
let test_chaos_sampled_spans_balanced () =
  let config = { Server.default_config with trace_sample = 1 } in
  let srv = Server.create ~config (Lazy.force service) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let out, _ = run_session srv session_input in
      check_bool "session answered" true (String.length out > 0);
      let events = Server.trace_events srv in
      check_bool "sampling recorded events" true (List.length events > 0);
      (* begin/end balance over the whole ring *)
      let depth =
        List.fold_left
          (fun d e ->
            (match e.Ring.phase with
            | Ring.Begin -> d + 1
            | Ring.End -> d - 1
            | Ring.Instant -> d))
          0 events
      in
      check_int "begin/end balanced" 0 depth;
      let spans, orphans = Ring.spans events in
      check_int "no orphan End events" 0 orphans;
      let roots =
        List.filter (fun sp -> sp.Ring.stack = [ "request" ]) spans
      in
      (* one root span per non-empty session line, each tagged *)
      let n_requests =
        List.length (List.filter (fun l -> String.trim l <> "") session)
      in
      check_int "one request root per session line" n_requests
        (List.length roots);
      List.iter
        (fun sp ->
          check_bool "root carries req_id" true
            (List.mem_assoc "req_id" sp.Ring.args);
          check_bool "root carries verb" true
            (List.mem_assoc "verb" sp.Ring.args))
        roots;
      (* every non-root span nests under a request root *)
      List.iter
        (fun sp ->
          match sp.Ring.stack with
          | "request" :: _ -> ()
          | stack ->
              Alcotest.failf "span outside a request root: %s"
                (String.concat "/" stack))
        spans;
      (* TRACE drains: a second drain sees nothing *)
      (match Server.handle_request srv Protocol.Trace with
      | Protocol.Ok_lines lines ->
          check_bool "TRACE drains events" true (List.length lines > 0)
      | r -> Alcotest.failf "trace: %s" (Protocol.render r));
      check_int "ring drained" 0 (List.length (Server.trace_events srv)))

(* ------------------------------------------------------------------ *)
(* Sockets: lifecycle, overload, slow-loris, drain                      *)
(* ------------------------------------------------------------------ *)

let tmp_socket () =
  let path = Filename.temp_file "wolves-test" ".sock" in
  Sys.remove path;
  path

let with_server ?config f =
  let path = tmp_socket () in
  match Server.start ?config (Server.Unix_socket path) (Lazy.force service) with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          if Sys.file_exists path then Sys.remove path)
        (fun () -> f srv path)

let connect path =
  match Client.connect ~timeout_s:5. (`Unix path) with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let request c line =
  match Client.request c line with
  | Ok r -> r
  | Error e -> Alcotest.failf "request %s: %s" line e

(* Drain everything the server sends on a raw connection (until EOF). *)
let slurp ?(timeout_s = 5.) fd =
  let conn = Net_io.of_fd ~read_timeout_s:timeout_s fd in
  let b = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  (try
     let rec go () =
       let n = conn.Net_io.recv chunk 0 (Bytes.length chunk) in
       if n > 0 then begin
         Buffer.add_subbytes b chunk 0 n;
         go ()
       end
     in
     go ()
   with Net_io.Timeout | Net_io.Net_error _ -> ());
  Buffer.contents b

let raw_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let test_socket_end_to_end () =
  with_server (fun srv path ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* every request kind through real sockets = the direct call *)
          List.iter
            (fun line ->
              match Protocol.parse line with
              | Error _ -> Alcotest.failf "bad test request %s" line
              | Ok req ->
                  Alcotest.check reply_t line
                    (Server.handle_request srv req)
                    (request c line))
            [ "PING"; "LIST"; "VALIDATE fig1"; "VALIDATE nosuch";
              "CORRECT fig3 weak"; "CORRECT fig3 DEADLINE 60000";
              "QUERY fig1 ancestors('12:Display Tree')"; "LINT fig3";
              "ANALYZE fig1"; "CORRECT big optimal" ];
          (* a malformed request leaves the connection usable *)
          (match request c "FROB nonsense" with
          | Protocol.Err ("unknown-command", _) -> ()
          | r -> Alcotest.failf "malformed: %s" (Protocol.render r));
          Alcotest.check reply_t "still serving after malformed"
            (Protocol.Ok_lines [ "pong" ])
            (request c "PING");
          (* server-owned replies *)
          (match request c "HEALTH" with
          | Protocol.Ok_lines [ "ok"; corpus ] ->
              check_string "health corpus" "corpus 3" corpus
          | r -> Alcotest.failf "health: %s" (Protocol.render r));
          (match request c "STATS" with
          | Protocol.Ok_lines lines ->
              (* 5 header counters + one requests_<verb> per verb family +
                 8 level/latency/drain lines *)
              check_int "stats line count"
                (13 + Array.length Server.verbs)
                (List.length lines);
              check_bool "stats leads with uptime" true
                (String.length (List.hd lines) > 8
                && String.sub (List.hd lines) 0 8 = "uptime_s");
              (* per-verb counters reflect this very session: two PINGs and
                 two VALIDATEs answered so far, one malformed FROB *)
              check_bool "per-verb ping counter" true
                (List.mem "requests_ping 2" lines);
              check_bool "per-verb validate counter" true
                (List.mem "requests_validate 2" lines);
              check_bool "per-verb malformed counter" true
                (List.mem "requests_malformed 1" lines);
              (* the total is counted once: it is the per-verb sum *)
              let value key =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' l with
                    | [ k; v ] when k = key -> int_of_string_opt v
                    | _ -> None)
                  lines
              in
              check_int "requests = sum of requests_<verb>"
                (Array.fold_left
                   (fun acc verb ->
                     acc + Option.get (value ("requests_" ^ verb)))
                   0 Server.verbs)
                (Option.get (value "requests"))
          | r -> Alcotest.failf "stats: %s" (Protocol.render r)));
      let s = Server.stats srv in
      check_bool "requests counted" true (s.Server.requests >= 13);
      check_bool "errors counted" true (s.Server.errors >= 3);
      check_int "one connection" 1 s.Server.connections)

(* METRICS over a real socket renders a valid Prometheus text page; TRACE
   without sampling is a typed refusal, not a hang or a crash. *)
let test_socket_metrics_exposition () =
  with_server (fun _srv path ->
      let c = connect path in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter
            (fun line -> ignore (request c line))
            [ "PING"; "VALIDATE fig1"; "FROB nonsense" ];
          (match request c "METRICS" with
          | Protocol.Ok_lines lines ->
              let page = String.concat "\n" lines ^ "\n" in
              (match Prom.check page with
              | Ok n ->
                  check_bool "exposition non-trivial" true (n > 20)
              | Error e ->
                  Alcotest.failf "METRICS fails the exposition checker: %s" e);
              check_bool "per-verb counter exposed" true
                (List.mem
                   "wolves_server_verb_requests_total{verb=\"ping\"} 1" lines);
              check_bool "request total exposed" true
                (List.mem "wolves_server_requests_total 3" lines);
              check_bool "no server_* registry mirror" false
                (List.exists
                   (fun l ->
                     String.starts_with ~prefix:"server_" l
                     || String.starts_with ~prefix:"# TYPE server_" l)
                   lines);
              check_bool "latency histogram exposed" true
                (List.exists
                   (fun l ->
                     String.length l > 36
                     && String.sub l 0 36
                        = "wolves_server_latency_seconds_bucket")
                   lines)
          | r -> Alcotest.failf "metrics: %s" (Protocol.render r));
          match request c "TRACE" with
          | Protocol.Err ("bad-request", _) -> ()
          | r -> Alcotest.failf "trace while sampling off: %s" (Protocol.render r)))

let test_socket_quit_and_reconnect () =
  with_server (fun _srv path ->
      let c = connect path in
      Alcotest.check reply_t "quit" (Protocol.Ok_lines [ "bye" ])
        (request c "QUIT");
      (* server closed the connection after QUIT *)
      (match Client.request c "PING" with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "after quit: %s" (Protocol.render r));
      Client.close c;
      let c2 = connect path in
      Alcotest.check reply_t "fresh connection serves" (Protocol.Ok_lines [ "pong" ])
        (request c2 "PING");
      Client.close c2)

let test_socket_too_large_closes () =
  let config = { Server.default_config with max_request_bytes = 32 } in
  with_server ~config (fun _srv path ->
      let c = connect path in
      (match request c ("VALIDATE " ^ String.make 100 'x') with
      | Protocol.Err ("too-large", _) -> ()
      | r -> Alcotest.failf "oversized: %s" (Protocol.render r));
      (* framing is lost, the server must hang up *)
      (match Client.request c "PING" with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "after oversized: %s" (Protocol.render r));
      Client.close c)

let test_socket_slow_loris () =
  let config =
    { Server.default_config with read_timeout_s = 0.3; workers = 2 }
  in
  with_server ~config (fun srv path ->
      let fd = raw_connect path in
      (* half a request, then silence: the read deadline must cut us off *)
      ignore (Unix.write_substring fd "VALIDATE fi" 0 11);
      let out = slurp ~timeout_s:3. fd in
      check_string "slow-loris gets the timeout error" timeout_line out;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* and the worker is free again for honest clients *)
      let c = connect path in
      Alcotest.check reply_t "server alive after slow-loris"
        (Protocol.Ok_lines [ "pong" ])
        (request c "PING");
      Client.close c;
      check_bool "timeout counted" true ((Server.stats srv).Server.timeouts >= 1))

let test_socket_overload_shedding () =
  let config =
    { Server.default_config with
      workers = 1;
      queue_depth = 1;
      read_timeout_s = 2.;
      retry_after_ms = 70 }
  in
  with_server ~config (fun srv path ->
      (* wedge the single worker with a never-completing request ... *)
      let hog = raw_connect path in
      ignore (Unix.write_substring hog "VALID" 0 5);
      Unix.sleepf 0.3;
      (* ... fill the one queue slot ... *)
      let queued = raw_connect path in
      Unix.sleepf 0.2;
      (* ... and the next arrival is shed in O(1) *)
      let shed1 = raw_connect path in
      let out1 = slurp ~timeout_s:3. shed1 in
      check_string "shed connection gets OVERLOADED" "OVERLOADED 70\n" out1;
      (try Unix.close shed1 with Unix.Unix_error _ -> ());
      check_bool "shed counted" true ((Server.stats srv).Server.shed >= 1);
      (* release the worker: the queued client is served normally *)
      (try Unix.close hog with Unix.Unix_error _ -> ());
      ignore (Unix.write_substring queued "PING\nQUIT\n" 0 10);
      let out = slurp ~timeout_s:3. queued in
      check_string "queued client served after the hog leaves"
        "OK 1\npong\nOK 1\nbye\n" out;
      (try Unix.close queued with Unix.Unix_error _ -> ()))

let test_socket_drain () =
  let config =
    { Server.default_config with
      workers = 1;
      read_timeout_s = 0.5;
      drain_grace_s = 1. }
  in
  let path = tmp_socket () in
  match Server.start ~config (Server.Unix_socket path) (Lazy.force service) with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok srv ->
      (* one connection being served, one waiting in the queue *)
      let active = raw_connect path in
      Unix.sleepf 0.2;
      let queued = raw_connect path in
      Unix.sleepf 0.1;
      check_bool "not draining yet" false (Server.stop_requested srv);
      Server.request_stop srv;
      check_bool "draining flagged" true (Server.stop_requested srv);
      Server.stop srv;
      check_bool "drained" true (Server.drained srv);
      check_bool "socket unlinked" false (Sys.file_exists path);
      (* the queued-but-never-served connection got a typed refusal *)
      let out = slurp ~timeout_s:2. queued in
      check_string "queued connection refused on drain"
        (Protocol.render (Protocol.Err ("shutting-down", "server is draining")))
        out;
      (try Unix.close queued with Unix.Unix_error _ -> ());
      (try Unix.close active with Unix.Unix_error _ -> ());
      (* stop is idempotent, and new connections are impossible *)
      Server.stop srv;
      (match Client.connect ~timeout_s:1. (`Unix path) with
      | Error _ -> ()
      | Ok c ->
          Client.close c;
          Alcotest.fail "connected to a drained server")

let test_ephemeral_tcp_port () =
  let config = { Server.default_config with workers = 1 } in
  match Server.start ~config (Server.Tcp ("127.0.0.1", 0)) (Lazy.force service) with
  | Error e -> Alcotest.failf "tcp start: %s" e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          match Server.address srv with
          | Some (Unix.ADDR_INET (_, port)) ->
              check_bool "ephemeral port assigned" true (port > 0);
              let c =
                match Client.connect ~timeout_s:5. (`Tcp ("127.0.0.1", port)) with
                | Ok c -> c
                | Error e -> Alcotest.failf "tcp connect: %s" e
              in
              Alcotest.check reply_t "tcp ping" (Protocol.Ok_lines [ "pong" ])
                (request c "PING");
              Client.close c
          | _ -> Alcotest.fail "no bound address")

let test_config_validation () =
  let bad c = Server.create ~config:c (Lazy.force service) in
  let d = Server.default_config in
  List.iter
    (fun (name, c) ->
      match bad c with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" name)
    [ ("workers 0", { d with Server.workers = 0 });
      ("queue 0", { d with Server.queue_depth = 0 });
      ("timeout 0", { d with Server.read_timeout_s = 0. });
      ("tiny request bound", { d with Server.max_request_bytes = 4 });
      ("negative retry", { d with Server.retry_after_ms = -1 });
      ("negative grace", { d with Server.drain_grace_s = -1. }) ]

(* ------------------------------------------------------------------ *)
(* The binary: serve/drain, stderr discipline, artifact-write exits     *)
(* ------------------------------------------------------------------ *)

(* The CLI binary lives next to this test executable in the build tree
   (_build/default/{test,bin}), wherever the runner's cwd is. *)
let exe =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "wolves.exe"

let temp_path suffix =
  let p = Filename.temp_file "wolves-cli" suffix in
  Sys.remove p;
  p

let run_cli args ~out ~err =
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s"
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  Sys.command cmd

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Satellite: the resume dropped-tail warning must go to stderr — stdout
   belongs to the command's own (possibly --json-consumed) output. *)
let test_cli_resume_warning_on_stderr () =
  let spec = temp_path ".moml" in
  let trace = temp_path ".csv" in
  let out = temp_path ".out" and err = temp_path ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ spec; trace; out; err ])
    (fun () ->
      check_int "generate" 0
        (run_cli
           [ "generate"; "-o"; spec; "--family"; "pipeline"; "--size"; "6";
             "--seed"; "1" ]
           ~out ~err);
      check_int "simulate with checkpoint" 0
        (run_cli
           [ "simulate"; spec; "--runs"; "1"; "--save-trace"; trace ]
           ~out ~err);
      (* tear the checkpoint: drop the footer, cut the last row mid-line *)
      let rows =
        read_file trace |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && not (String.length l > 4 && String.sub l 0 4 = "#end"))
      in
      check_bool "trace has rows" true (List.length rows > 2);
      let last = List.nth rows (List.length rows - 1) in
      let torn =
        String.concat "\n" (List.filteri (fun i _ -> i < List.length rows - 1) rows)
        ^ "\n"
        ^ String.sub last 0 (String.length last / 2)
      in
      let oc = open_out_bin trace in
      output_string oc torn;
      close_out oc;
      check_int "resume from torn checkpoint" 0
        (run_cli [ "simulate"; spec; "--resume"; trace ] ~out ~err);
      let stdout_text = read_file out and stderr_text = read_file err in
      check_bool "warning lands on stderr" true
        (contains stderr_text "dropped torn checkpoint tail");
      check_bool "stdout free of the warning" false
        (contains stdout_text "dropped torn checkpoint tail");
      check_bool "resume summary still on stdout" true
        (contains stdout_text "resumed from"))

(* Satellite: a failed artifact write (metrics dump) must flip the exit
   code even when the command itself succeeded. *)
let test_cli_metrics_write_failure_exit () =
  let spec = temp_path ".moml" in
  let out = temp_path ".out" and err = temp_path ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ spec; out; err ])
    (fun () ->
      check_int "generate" 0
        (run_cli
           [ "generate"; "-o"; spec; "--family"; "pipeline"; "--size"; "6";
             "--seed"; "1" ]
           ~out ~err);
      (* sound view, writable metrics: everything exits 0 *)
      let good = temp_path ".json" in
      check_int "validate with writable metrics" 0
        (run_cli [ "validate"; spec; "--metrics"; good ] ~out ~err);
      check_bool "metrics dump written" true (Sys.file_exists good);
      (try Sys.remove good with Sys_error _ -> ());
      (* same command, unwritable dump path: primary output intact, exit 1 *)
      let code =
        run_cli
          [ "validate"; spec; "--metrics"; "/nonexistent-dir/m.json" ]
          ~out ~err
      in
      check_int "unwritable metrics dump exits non-zero" 1 code;
      check_bool "failure reported on stderr" true
        (contains (read_file err) "cannot write");
      check_bool "primary output still produced" true
        (contains (read_file out) "sound"))

(* The acceptance gate: a served corpus answers over a Unix socket, and
   SIGTERM drains gracefully with exit status 0. *)
let test_cli_serve_sigterm_drain () =
  let sock = temp_path ".sock" in
  let out = temp_path ".out" and err = temp_path ".err" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--unix-socket"; sock; "--synthesize"; "--sizes"; "8";
         "--per-cell"; "1"; "--workers"; "2" |]
      devnull out_fd err_fd
  in
  Unix.close devnull;
  Unix.close out_fd;
  Unix.close err_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; out; err ])
    (fun () ->
      (* wait for the listener *)
      let deadline = Unix.gettimeofday () +. 20. in
      while not (Sys.file_exists sock) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.05
      done;
      check_bool "socket appears" true (Sys.file_exists sock);
      let c = connect sock in
      Alcotest.check reply_t "served ping" (Protocol.Ok_lines [ "pong" ])
        (request c "PING");
      (match request c "LIST" with
      | Protocol.Ok_lines lines ->
          check_bool "synthesized corpus non-empty" true (List.length lines > 0)
      | r -> Alcotest.failf "list: %s" (Protocol.render r));
      Client.close c;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "serve exited %d on SIGTERM" n
      | Unix.WSIGNALED s -> Alcotest.failf "serve killed by signal %d" s
      | Unix.WSTOPPED _ -> Alcotest.fail "serve stopped");
      check_bool "socket unlinked on drain" false (Sys.file_exists sock);
      check_bool "drain summary printed" true
        (contains (read_file out) "drained:"))

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "wolves_server"
    [ ( "protocol",
        [ Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "render" `Quick test_render;
          qt render_matches_reference;
          Alcotest.test_case "parse_reply_stream" `Quick test_parse_reply_stream ] );
      ( "service",
        [ Alcotest.test_case "load and lookup" `Quick test_service_load;
          Alcotest.test_case "handle" `Quick test_service_handle ] );
      ( "chaos",
        [ Alcotest.test_case "clean, short reads/writes, CRLF" `Quick
            test_chaos_clean_and_short;
          Alcotest.test_case "disconnect byte sweep" `Quick
            test_chaos_disconnect_sweep;
          Alcotest.test_case "stall byte sweep" `Quick test_chaos_stall_sweep;
          Alcotest.test_case "send-error byte sweep" `Quick
            test_chaos_send_error_sweep;
          Alcotest.test_case "garbage byte sweep" `Quick test_chaos_garbage_sweep;
          qt chaos_random;
          Alcotest.test_case "raising request is isolated" `Quick
            test_chaos_isolation;
          Alcotest.test_case "oversized request" `Quick test_chaos_too_long;
          Alcotest.test_case "access log exactly-once under faults" `Quick
            test_chaos_access_log_exactly_once;
          Alcotest.test_case "sampled spans reconstruct balanced" `Quick
            test_chaos_sampled_spans_balanced ] );
      ( "sockets",
        [ Alcotest.test_case "end-to-end byte identity" `Quick
            test_socket_end_to_end;
          Alcotest.test_case "metrics exposition and trace gating" `Quick
            test_socket_metrics_exposition;
          Alcotest.test_case "quit and reconnect" `Quick
            test_socket_quit_and_reconnect;
          Alcotest.test_case "oversized request closes" `Quick
            test_socket_too_large_closes;
          Alcotest.test_case "slow-loris cut off" `Quick test_socket_slow_loris;
          Alcotest.test_case "overload shedding" `Quick
            test_socket_overload_shedding;
          Alcotest.test_case "graceful drain" `Quick test_socket_drain;
          Alcotest.test_case "ephemeral tcp port" `Quick test_ephemeral_tcp_port;
          Alcotest.test_case "config validation" `Quick test_config_validation ] );
      ( "binary",
        [ Alcotest.test_case "resume warning on stderr" `Slow
            test_cli_resume_warning_on_stderr;
          Alcotest.test_case "metrics write failure exit code" `Slow
            test_cli_metrics_write_failure_exit;
          Alcotest.test_case "serve drains on SIGTERM" `Slow
            test_cli_serve_sigterm_drain ] ) ]
