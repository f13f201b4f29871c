(* OCaml ints carry 63 usable bits; we store 63 members per word so that all
   word arithmetic stays within the untagged range. *)
let bits_per_word = 63

type t = {
  capacity : int;
  words : int array;
}

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (words_for capacity) 0 }

let capacity s = s.capacity

let copy s = { s with words = Array.copy s.words }

let check s i name =
  if i < 0 || i >= s.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: %d out of [0, %d)" name i s.capacity)

let add s i =
  check s i "add";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i "remove";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  check s i "mem";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) land (1 lsl b) <> 0

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let popcount =
  (* Kernighan's loop is fine at our word counts. *)
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  fun w -> go 0 w

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill s =
  for i = 0 to Array.length s.words - 1 do
    s.words.(i) <- -1
  done;
  (* Mask off the bits beyond [capacity] in the last word. *)
  let tail = s.capacity mod bits_per_word in
  if tail <> 0 && Array.length s.words > 0 then begin
    let last = Array.length s.words - 1 in
    s.words.(last) <- s.words.(last) land ((1 lsl tail) - 1)
  end

let same_capacity a b name =
  if a.capacity <> b.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch (%d vs %d)"
                   name a.capacity b.capacity)

let union_into ~into s =
  same_capacity into s "union_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor s.words.(i)
  done

let inter_into ~into s =
  same_capacity into s "inter_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land s.words.(i)
  done

let diff_into ~into s =
  same_capacity into s "diff_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot s.words.(i)
  done

(* Cache-blocked multi-source union: OR the sources into [into] one block
   of words at a time, all sources before the next block, so [into]'s block
   stays resident in L1 across the whole source group instead of being
   streamed through the cache once per source. 256 words = 2 KB per block,
   comfortably under any L1; the win shows on closure rows wide enough to
   spill (tens of thousands of bits) unioned over several successors. *)
let block_words = 256

let union_many_into ~into sources =
  Array.iter (fun s -> same_capacity into s "union_many_into") sources;
  match Array.length sources with
  | 0 -> ()
  | 1 -> union_into ~into sources.(0)
  | nsrc ->
    let nw = Array.length into.words in
    let iw = into.words in
    let b = ref 0 in
    while !b < nw do
      let hi = min nw (!b + block_words) in
      for k = 0 to nsrc - 1 do
        let sw = sources.(k).words in
        for i = !b to hi - 1 do
          iw.(i) <- iw.(i) lor sw.(i)
        done
      done;
      b := hi
    done

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

let equal a b =
  same_capacity a b "equal";
  a.words = b.words

(* Cumulative count of words examined by the short-circuiting predicates
   below — a test/debug observable (the early-exit tests assert the scan
   really stops at the first violating word), not a metric: it is plain
   (non-atomic) and unsynchronised under domains. *)
let scanned_words = ref 0

let words_scanned () = !scanned_words

let subset a b =
  same_capacity a b "subset";
  (* Short-circuit on the first word of [a] with a bit outside [b]: these
     run inside the soundness pruning probes, where the answer is usually
     decided within a word or two. *)
  let n = Array.length a.words in
  let rec go i =
    i >= n
    || begin
         incr scanned_words;
         a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)
       end
  in
  go 0

let disjoint a b =
  same_capacity a b "disjoint";
  let n = Array.length a.words in
  let rec go i =
    i >= n
    || begin
         incr scanned_words;
         a.words.(i) land b.words.(i) = 0 && go (i + 1)
       end
  in
  go 0

(* Number of trailing zeros of a one-bit word (a power of two fitting in the
   63 usable bits), by binary search — six branches, no table. *)
let ntz_pow2 w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := !n + 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then incr n;
  !n

(* Lowest-set-bit extraction: each iteration isolates the lowest member with
   [word land (-word)] and clears it, so a word costs O(popcount) instead of
   all 63 bit probes — the win on the sparse sets Reach and Soundness
   iterate. *)
let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    if !word <> 0 then begin
      let base = w * bits_per_word in
      while !word <> 0 do
        let low = !word land (- !word) in
        f (base + ntz_pow2 low);
        word := !word land lnot low
      done
    end
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

(* [for_all]/[exists] used to fold the whole set even after the answer was
   settled; they now abandon the iteration at the first decisive member. *)
exception Settled

let for_all p s =
  try
    iter (fun i -> if not (p i) then raise_notrace Settled) s;
    true
  with Settled -> false

let exists p s =
  try
    iter (fun i -> if p i then raise_notrace Settled) s;
    false
  with Settled -> true

(* Index of the highest set bit of a nonzero word, by binary search. [lsr]
   shifts the sign bit (bit 62, a member like any other) as a plain bit. *)
let top_bit w =
  let n = ref 0 and w = ref w in
  if !w lsr 32 <> 0 then begin n := 32; w := !w lsr 32 end;
  if !w lsr 16 <> 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w lsr 8 <> 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w lsr 4 <> 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w lsr 2 <> 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w lsr 1 <> 0 then incr n;
  !n

(* Highest word first and highest member first within each word: consing in
   that order builds the increasing list directly, with no reversal. *)
let elements s =
  let acc = ref [] in
  for w = Array.length s.words - 1 downto 0 do
    let word = ref s.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let b = top_bit !word in
      acc := (base + b) :: !acc;
      word := !word lxor (1 lsl b)
    done
  done;
  !acc

let lowest_bit w = ntz_pow2 (w land -w)

let gather_into s positions ~into ~off =
  for k = 0 to Array.length positions - 1 do
    let i = positions.(k) in
    if i < 0 || i >= s.capacity then check s i "gather_into";
    if s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0
    then begin
      let w = off + (k / bits_per_word) in
      into.(w) <- into.(w) lor (1 lsl (k mod bits_per_word))
    end
  done

let of_list capacity elts =
  let s = create capacity in
  List.iter (add s) elts;
  s

let choose s =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements s)
