(* The crash-safe store: checksums, recovery, and the crash matrix — for
   every injection point during an ingest, reopening recovers exactly the
   committed records and verify reports zero issues. *)

module S = Wolves_storage.Store
module Sio = Wolves_storage.Storage_io
module Crc = Wolves_storage.Crc32c

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_dir () =
  let dir = Filename.temp_file "wolves_store" "" in
  Sys.remove dir;
  dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" name S.pp_error e

(* --- checksums --- *)

let test_crc32c () =
  (* The RFC 3720 check value, plus composition and empty-string edges. *)
  check_int "check value" 0xE3069283 (Crc.string "123456789");
  check_int "empty" 0 (Crc.string "");
  check_int "substring = whole"
    (Crc.string "456")
    (Crc.substring "123456789" ~pos:3 ~len:3);
  check_int "update composes"
    (Crc.string "123456789")
    (Crc.update (Crc.string "1234") "123456789" ~pos:4 ~len:5);
  check_bool "single flip changes crc" true
    (Crc.string "123456789" <> Crc.string "123456789\x00"
     && Crc.string "123456799" <> Crc.string "123456789")

(* The byte-at-a-time definition the slicing-by-8 loop must agree with. *)
let crc_bytewise crc s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Random strings, at every alignment, with short (0-40 bytes) and longer
   ranges, and chained through [update] from a random running value. *)
let crc32c_matches_bytewise =
  QCheck2.Test.make ~name:"crc32c = byte-at-a-time definition" ~count:500
    QCheck2.Gen.(
      let* s = string_size ~gen:char (int_range 0 300) in
      let n = String.length s in
      let* pos = int_range 0 n in
      let* len = oneof [ int_range 0 (min 40 (n - pos)); int_range 0 (n - pos) ] in
      let+ seed = oneof [ return 0; int_bound 0x3FFFFFFF ] in
      (s, pos, len, seed))
    (fun (s, pos, len, seed) ->
      Crc.substring s ~pos ~len = crc_bytewise 0 s ~pos ~len
      && Crc.update seed s ~pos ~len = crc_bytewise seed s ~pos ~len
      && Crc.string s = crc_bytewise 0 s ~pos:0 ~len:(String.length s))

(* A store written before the checksum loop changed (fixtures/store-v1: one
   shard, one MoML workflow) still verifies clean, opens without any
   recovery, and returns its record. *)
let test_store_from_earlier_build () =
  (* [dune runtest] runs in the test directory, [dune exec] from the root *)
  let fixture =
    List.find Sys.file_exists [ "fixtures/store-v1"; "test/fixtures/store-v1" ]
  in
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      List.iter
        (fun f ->
          let text = In_channel.with_open_bin (Filename.concat fixture f) In_channel.input_all in
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc text))
        [ "CATALOG"; "shard000-000000.seg" ];
      let report = ok "verify" (S.verify dir) in
      check_int "no issues" 0 (List.length report.S.issues);
      check_int "one record" 1 report.S.v_records;
      let t, recovery = ok "open" (S.open_ dir) in
      check_int "nothing truncated" 0 (List.length recovery.S.truncations);
      check_bool "catalog kept" false recovery.S.manifest_rebuilt;
      (match ok "latest" (S.latest t S.Workflow) with
       | [ r ] ->
         Alcotest.(check string) "id" "tiny" r.S.id;
         check_bool "MoML payload" true
           (Result.is_ok (Wolves_moml.Moml.of_string r.S.value))
       | records -> Alcotest.failf "expected one record, got %d" (List.length records));
      ignore (S.close t))

(* --- basic lifecycle --- *)

let small_config = { S.shards = 3; segment_bytes = 2048 }

let corpus n =
  List.init n (fun i ->
      ( Printf.sprintf "wf-%03d" i,
        String.make (40 + (i * 7 mod 60)) (Char.chr (65 + (i mod 26))) ))

let ingest ?(sync = true) ?(config = small_config) ?io dir entries =
  let acked = ref 0 in
  (try
     match S.init ?io ~config dir with
     | Ok t ->
       List.iter
         (fun (id, v) ->
           match S.append t ~sync S.Workflow ~id v with
           | Ok () -> incr acked
           | Error _ -> ())
         entries;
       ignore (S.close t)
     | Error e -> Alcotest.failf "init: %a" S.pp_error e
   with Sio.Crashed _ -> ());
  !acked

let test_roundtrip () =
  with_dir @@ fun dir ->
  let entries = corpus 40 in
  let acked = ingest dir entries in
  check_int "all appends acked" 40 acked;
  let t, recovery = ok "open" (S.open_ dir) in
  check_int "all records recovered" 40 recovery.S.records_recovered;
  check_bool "clean close needs no repairs" true
    (recovery.S.truncations = [] && recovery.S.dropped_segments = []
    && not recovery.S.manifest_rebuilt);
  let records = ok "records" (S.records t) in
  check_int "record count" 40 (List.length records);
  List.iteri
    (fun i (r : S.record) ->
      check_int "lsn order" i r.S.lsn;
      check_bool "value intact" true
        (List.assoc r.S.id entries = r.S.value))
    records;
  let stats = S.stats t in
  check_int "stats records" 40 stats.S.n_records;
  check_int "stats shards" 3 stats.S.n_shards;
  check_bool "ids spread over shards" true (stats.S.n_segments >= 3);
  ignore (S.close t)

let test_latest_supersedes () =
  with_dir @@ fun dir ->
  let t = ok "init" (S.init ~config:small_config dir) in
  List.iter
    (fun (id, v) -> ok "append" (S.append t S.Workflow ~id v))
    [ ("a", "v1"); ("b", "v1"); ("a", "v2"); ("a", "v3"); ("b", "v2") ];
  ok "ckpt" (S.append t S.Checkpoint ~id:"a" "trace");
  ok "close" (S.close t);
  let t, _ = ok "open" (S.open_ dir) in
  let latest = ok "latest" (S.latest t S.Workflow) in
  check_int "one record per id" 2 (List.length latest);
  List.iter
    (fun (r : S.record) ->
      check_bool "newest version wins" true
        (r.S.value = if r.S.id = "a" then "v3" else "v2"))
    latest;
  let ck = ok "latest ckpt" (S.latest t S.Checkpoint) in
  check_int "kinds are separate keyspaces" 1 (List.length ck);
  ignore (S.close t)

let test_init_refuses_existing () =
  with_dir @@ fun dir ->
  ignore (ingest dir (corpus 3));
  match S.init dir with
  | Ok _ -> Alcotest.fail "init over an existing store must fail"
  | Error _ -> ()

let test_shard_routing () =
  check_bool "routing is deterministic" true
    (S.shard_of_id ~shards:7 "wf-001" = S.shard_of_id ~shards:7 "wf-001");
  List.iter
    (fun shards ->
      List.iter
        (fun (id, _) ->
          let s = S.shard_of_id ~shards id in
          check_bool "in range" true (s >= 0 && s < shards))
        (corpus 50))
    [ 1; 2; 3; 16; 256 ]

(* --- the crash matrix --- *)

(* Sweep every mutating-operation index: crash there, reopen with clean I/O,
   and require (a) at least every acked record survives, (b) every surviving
   record is genuine, (c) verify is clean after recovery. *)
let crash_matrix_ops () =
  let entries = corpus 40 in
  (* measure the fault-free op count *)
  let total_ops =
    with_dir @@ fun dir ->
    let io, inj = Sio.faulty (Sio.Crash_after_ops max_int) Sio.system in
    ignore (ingest ~io dir entries);
    inj.Sio.ops_seen
  in
  check_bool "ingest issues many ops" true (total_ops > 80);
  for n = 0 to total_ops - 1 do
    with_dir @@ fun dir ->
    let io, _ = Sio.faulty (Sio.Crash_after_ops n) Sio.system in
    let acked = ingest ~io dir entries in
    match S.open_ dir with
    | Ok (t, _) ->
      let records = ok "records" (S.records t) in
      if List.length records < acked then
        Alcotest.failf "op %d: acked %d but recovered only %d" n acked
          (List.length records);
      List.iter
        (fun (r : S.record) ->
          match List.assoc_opt r.S.id entries with
          | Some v when v = r.S.value -> ()
          | Some _ -> Alcotest.failf "op %d: corrupt value for %s" n r.S.id
          | None -> Alcotest.failf "op %d: ghost record %s" n r.S.id)
        records;
      ignore (S.close t);
      let report = ok "verify" (S.verify dir) in
      if report.S.issues <> [] then
        Alcotest.failf "op %d: %d verify issue(s) after recovery" n
          (List.length report.S.issues)
    | Error _ when acked = 0 -> () (* crashed before anything durable *)
    | Error e -> Alcotest.failf "op %d: reopen failed: %a" n S.pp_error e
  done

(* Sweep every byte offset of a small ingest: the write crossing that byte
   is torn mid-record, which recovery must truncate away. *)
let crash_matrix_bytes () =
  let entries = corpus 4 in
  let total_bytes =
    with_dir @@ fun dir ->
    let io, inj = Sio.faulty (Sio.Crash_after_ops max_int) Sio.system in
    ignore (ingest ~io dir entries);
    inj.Sio.bytes_written
  in
  check_bool "ingest writes some bytes" true (total_bytes > 500);
  for k = 0 to total_bytes - 1 do
    with_dir @@ fun dir ->
    let io, _ = Sio.faulty (Sio.Crash_at_byte k) Sio.system in
    let acked = ingest ~io dir entries in
    match S.open_ dir with
    | Ok (t, _) ->
      let records = ok "records" (S.records t) in
      if List.length records < acked then
        Alcotest.failf "byte %d: acked %d but recovered only %d" k acked
          (List.length records);
      ignore (S.close t);
      let report = ok "verify" (S.verify dir) in
      if report.S.issues <> [] then
        Alcotest.failf "byte %d: verify issues after recovery" k
    | Error _ when acked = 0 -> ()
    | Error e -> Alcotest.failf "byte %d: reopen failed: %a" k S.pp_error e
  done

(* Randomised composition: a random corpus, a random crash point, and a
   reopen — the same acked-prefix property, over shapes the deterministic
   sweeps do not enumerate. *)
let crash_matrix_random =
  QCheck2.Test.make ~name:"random crash point preserves acked records"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 1 30) (int_range 0 200) (int_range 1 4))
    (fun (n_entries, crash_op, shards) ->
      with_dir @@ fun dir ->
      let entries = corpus n_entries in
      let io, _ = Sio.faulty (Sio.Crash_after_ops crash_op) Sio.system in
      let acked =
        ingest ~config:{ S.shards; segment_bytes = 1024 } ~io dir entries
      in
      match S.open_ dir with
      | Ok (t, _) ->
        let records = ok "records" (S.records t) in
        ignore (S.close t);
        List.length records >= acked
        && List.for_all
             (fun (r : S.record) ->
               List.assoc_opt r.S.id entries = Some r.S.value)
             records
        && (ok "verify" (S.verify dir)).S.issues = []
      | Error _ -> acked = 0)

(* --- the catalog swap --- *)

let test_manifest_swap_atomic () =
  (* A crash at any op during a re-open-and-append session must leave the
     directory openable: either the old catalog, the new one, or a rebuild
     from segments — never a torn catalog that bricks the store. *)
  let entries = corpus 12 in
  let more = List.map (fun (id, v) -> (id ^ "-bis", v)) entries in
  let seed_store dir =
    ignore (ingest dir entries)
  in
  let continue_ops =
    with_dir @@ fun dir ->
    seed_store dir;
    let io, inj = Sio.faulty (Sio.Crash_after_ops max_int) Sio.system in
    (try
       let t, _ = ok "reopen" (S.open_ ~io dir) in
       List.iter
         (fun (id, v) -> ignore (S.append t ~sync:true S.Workflow ~id v))
         more;
       ignore (S.close t)
     with Sio.Crashed _ -> ());
    inj.Sio.ops_seen
  in
  for n = 0 to continue_ops - 1 do
    with_dir @@ fun dir ->
    seed_store dir;
    let io, _ = Sio.faulty (Sio.Crash_after_ops n) Sio.system in
    (try
       match S.open_ ~io dir with
       | Ok (t, _) ->
         List.iter
           (fun (id, v) -> ignore (S.append t ~sync:true S.Workflow ~id v))
           more;
         ignore (S.close t)
       | Error _ -> ()
     with Sio.Crashed _ -> ());
    (* the first ingest was fully synced: its records must all survive *)
    let t, _ = ok "final open" (S.open_ dir) in
    let records = ok "records" (S.records t) in
    List.iter
      (fun (id, v) ->
        match
          List.find_opt (fun (r : S.record) -> r.S.id = id) records
        with
        | Some r when r.S.value = v -> ()
        | Some _ -> Alcotest.failf "op %d: corrupt pre-crash record %s" n id
        | None -> Alcotest.failf "op %d: lost pre-crash record %s" n id)
      entries;
    ignore (S.close t)
  done

let test_catalog_rebuild () =
  with_dir @@ fun dir ->
  ignore (ingest dir (corpus 20));
  Sys.remove (Filename.concat dir "CATALOG");
  let t, recovery = ok "open" (S.open_ dir) in
  check_bool "manifest rebuilt" true recovery.S.manifest_rebuilt;
  check_int "all records survive the rebuild" 20
    (List.length (ok "records" (S.records t)));
  ignore (S.close t);
  (* the rebuilt catalog persists *)
  let _, recovery = ok "reopen" (S.open_ dir) in
  check_bool "catalog now present" true (not recovery.S.manifest_rebuilt)

(* --- corruption detection --- *)

(* Flip every single byte of every segment in turn: verify must flag each
   flip (and recovery must never surface a corrupt record). *)
let test_bitflip_every_byte () =
  with_dir @@ fun dir ->
  ignore (ingest ~config:{ S.shards = 2; segment_bytes = 4096 } dir (corpus 6));
  check_int "baseline verifies clean" 0
    (List.length (ok "verify" (S.verify dir)).S.issues);
  let segs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
  in
  check_bool "have segments" true (segs <> []);
  List.iter
    (fun seg ->
      let path = Filename.concat dir seg in
      let original =
        In_channel.with_open_bin path In_channel.input_all
      in
      String.iteri
        (fun i _ ->
          let flipped = Bytes.of_string original in
          Bytes.set flipped i
            (Char.chr (Char.code original.[i] lxor (1 lsl (i mod 8))));
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc flipped);
          (match S.verify dir with
           | Ok report ->
             if report.S.issues = [] then
               Alcotest.failf "flip of %s byte %d went undetected" seg i
           | Error _ -> () (* catalog-level corruption is also detection *));
          (* recovery must never replay the corrupt byte into a record *)
          (match S.open_ dir with
           | Ok (t, _) ->
             List.iter
               (fun (r : S.record) ->
                 if List.assoc_opt r.S.id (corpus 6) <> Some r.S.value then
                   Alcotest.failf
                     "flip of %s byte %d surfaced a corrupt record" seg i)
               (ok "records" (S.records t));
             ignore (S.close t)
           | Error _ -> ());
          (* restore the directory for the next flip *)
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc original);
          (match S.open_ dir with
           | Ok (t, _) -> ignore (S.close t)
           | Error _ -> ()))
        original)
    segs

(* --- survivable errors --- *)

(* Every write index in turn raises Io_failure once; the store must roll
   back the torn append and stay usable for the rest of the corpus. *)
let test_transient_error_rolls_back () =
  let entries = corpus 10 in
  for n = 0 to 30 do
    with_dir @@ fun dir ->
    let io, inj = Sio.faulty (Sio.Error_on_op (Sio.Write, n)) Sio.system in
    match S.init ~io ~config:small_config dir with
    | Error _ ->
      (* init hit the failpoint; nothing durable expected *)
      check_bool "failpoint fired" true inj.Sio.fired
    | Ok t ->
      let acked = ref [] in
      List.iter
        (fun (id, v) ->
          match S.append t ~sync:true S.Workflow ~id v with
          | Ok () -> acked := id :: !acked
          | Error _ -> ())
        entries;
      ignore (S.close t);
      let t, _ = ok "reopen" (S.open_ dir) in
      let records = ok "records" (S.records t) in
      List.iter
        (fun id ->
          check_bool "acked record survives" true
            (List.exists (fun (r : S.record) -> r.S.id = id) records))
        !acked;
      ignore (S.close t);
      check_int "verify clean after transient error" 0
        (List.length (ok "verify" (S.verify dir)).S.issues)
  done

let () =
  Alcotest.run "wolves-storage"
    [ ( "crc32c",
        [ Alcotest.test_case "vectors and composition" `Quick test_crc32c;
          QCheck_alcotest.to_alcotest crc32c_matches_bytewise;
          Alcotest.test_case "store from an earlier build verifies" `Quick
            test_store_from_earlier_build ] );
      ( "lifecycle",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "latest supersedes" `Quick test_latest_supersedes;
          Alcotest.test_case "init refuses existing" `Quick
            test_init_refuses_existing;
          Alcotest.test_case "shard routing" `Quick test_shard_routing ] );
      ( "crash-matrix",
        [ Alcotest.test_case "every op index" `Slow crash_matrix_ops;
          Alcotest.test_case "every byte offset" `Slow crash_matrix_bytes;
          QCheck_alcotest.to_alcotest crash_matrix_random ] );
      ( "catalog",
        [ Alcotest.test_case "swap is atomic" `Slow test_manifest_swap_atomic;
          Alcotest.test_case "rebuild from segments" `Quick
            test_catalog_rebuild ] );
      ( "corruption",
        [ Alcotest.test_case "every bitflip detected" `Slow
            test_bitflip_every_byte ] );
      ( "transient-errors",
        [ Alcotest.test_case "write error rolls back" `Quick
            test_transient_error_rolls_back ] ) ]
