(* Reflected CRC-32C, slicing-by-8. [tables] holds eight 256-entry tables
   side by side: entry [n] of table 0 is the CRC of the single byte [n], and
   entry [n] of table [k] is that of byte [n] followed by [k] zero bytes. The
   main loop folds eight bytes per step with one lookup in each table; the
   tail folds one byte per step with table 0. All arithmetic stays within 32
   bits, well inside OCaml's 63-bit native int. *)

let poly = 0x82F63B78 (* 0x1EDC6F41 bit-reversed *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32c.update: range out of bounds";
  let byte i = Char.code (String.unsafe_get s i) in
  let table k n = Array.unsafe_get tables ((k * 256) + n) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let p = !i and x = !c in
    c :=
      table 7 (byte p lxor (x land 0xFF))
      lxor table 6 (byte (p + 1) lxor ((x lsr 8) land 0xFF))
      lxor table 5 (byte (p + 2) lxor ((x lsr 16) land 0xFF))
      lxor table 4 (byte (p + 3) lxor (x lsr 24))
      lxor table 3 (byte (p + 4))
      lxor table 2 (byte (p + 5))
      lxor table 1 (byte (p + 6))
      lxor table 0 (byte (p + 7));
    i := p + 8
  done;
  for p = !i to stop - 1 do
    c := table 0 ((!c lxor byte p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let substring s ~pos ~len = update 0 s ~pos ~len

let string s = substring s ~pos:0 ~len:(String.length s)
