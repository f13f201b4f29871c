type error = {
  line : int;
  column : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.column e.message

(* The current start tag's attributes as offsets into the input, five per
   attribute: name start and end, value start and end (quotes excluded), and
   1 when the value holds references. *)
type attributes = {
  src : string;
  mutable count : int;
  mutable spans : int array;
}

type consumer = {
  start_tag : string -> attributes -> unit;
  end_tag : unit -> unit;
  text : (string -> unit) option;
}

exception Fail of error

(* The scanner keeps only a byte offset. Tag names and plain text are sliced
   out of [input], attributes are offsets into it, and [text_buf] collects
   the current text run, only when the consumer asked for text. *)
type state = {
  input : string;
  len : int;
  mutable pos : int;
  mutable open_tags : string list; (* innermost first *)
  attrs : attributes;
  text_buf : Buffer.t;
}

(* Line and column of [pos]: one more than the newlines before it, and one
   more than the bytes since the last of them. *)
let position input pos =
  let line = ref 1 and line_start = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get input i = '\n' then begin
      incr line;
      line_start := i + 1
    end
  done;
  (!line, pos - !line_start + 1)

let fail st message =
  let line, column = position st.input st.pos in
  raise (Fail { line; column; message })

let eof st = st.pos >= st.len

let peek st = if eof st then '\000' else String.unsafe_get st.input st.pos

let next st =
  if eof st then fail st "unexpected end of input";
  let c = String.unsafe_get st.input st.pos in
  st.pos <- st.pos + 1;
  c

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, found %C" c got)

(* Do [a.[i, i + len)] and [b.[j, j + len)] hold the same bytes? The
   scanner's loops are top-level functions, not closures, so that a scan
   allocates only what it hands out: tag names, and text when asked. *)
let rec same_bytes a i b j len =
  len = 0
  || String.unsafe_get a i = String.unsafe_get b j && same_bytes a (i + 1) b (j + 1) (len - 1)

let looking_at st prefix =
  let n = String.length prefix in
  st.pos + n <= st.len && same_bytes st.input st.pos prefix 0 n

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (String.unsafe_get st.input st.pos) do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Step over a name and return where it started; it ends at [st.pos]. *)
let scan_name st =
  let c = peek st in
  if not (is_name_start c) then
    fail st (Printf.sprintf "expected a name, found %C" c);
  let start = st.pos in
  while (not (eof st)) && is_name_char (String.unsafe_get st.input st.pos) do
    st.pos <- st.pos + 1
  done;
  start

let parse_name st =
  let start = scan_name st in
  String.sub st.input start (st.pos - start)

(* The text an entity name (between '&' and ';') stands for. *)
let entity_value name =
  match name with
  | "amp" -> Ok "&"
  | "lt" -> Ok "<"
  | "gt" -> Ok ">"
  | "quot" -> Ok "\""
  | "apos" -> Ok "'"
  | _ ->
    let decode_numeric digits base =
      match int_of_string_opt (base ^ digits) with
      | Some code when code > 0 && Uchar.is_valid code ->
        (* Encode the scalar value back to UTF-8. Surrogates (D800-DFFF) and
           codes past 10FFFF are not scalar values and take the error below. *)
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.of_int code);
        Ok (Buffer.contents b)
      | Some _ | None -> Error (Printf.sprintf "invalid character reference &%s;" name)
    in
    if String.length name > 2 && name.[0] = '#' && (name.[1] = 'x' || name.[1] = 'X')
    then decode_numeric (String.sub name 2 (String.length name - 2)) "0x"
    else if String.length name > 1 && name.[0] = '#' then
      decode_numeric (String.sub name 1 (String.length name - 1)) ""
    else Error (Printf.sprintf "unknown entity &%s;" name)

let rec find_entity_end st start =
  match next st with
  | ';' -> ()
  | _ when st.pos - 1 - start > 10 -> fail st "entity reference too long"
  | _ -> find_entity_end st start

(* Decode one entity reference, the leading '&' already consumed. *)
let parse_entity st =
  let start = st.pos in
  find_entity_end st start;
  match entity_value (String.sub st.input start (st.pos - 1 - start)) with
  | Ok text -> text
  | Error message -> fail st message

(* Step to the closing quote, checking references on the way; 1 when there
   were any. *)
let rec skip_value st quote references =
  match next st with
  | c when c = quote -> references
  | '&' ->
    ignore (parse_entity st);
    skip_value st quote 1
  | '<' -> fail st "'<' is not allowed in attribute values"
  | _ -> skip_value st quote references

(* Step over a quoted attribute value and record where it lies; it is
   decoded only if a consumer asks for it. *)
let scan_attr_value st ~name_start ~name_end =
  let quote = next st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  let start = st.pos in
  let references = skip_value st quote 0 in
  let a = st.attrs in
  let i = 5 * a.count in
  if i + 5 > Array.length a.spans then begin
    let spans = Array.make (2 * Array.length a.spans) 0 in
    Array.blit a.spans 0 spans 0 i;
    a.spans <- spans
  end;
  a.spans.(i) <- name_start;
  a.spans.(i + 1) <- name_end;
  a.spans.(i + 2) <- start;
  a.spans.(i + 3) <- st.pos - 1;
  a.spans.(i + 4) <- references;
  a.count <- a.count + 1

(* Does attribute [i] of [a] have the name [src.[start, stop)]? *)
let attr_named a i src start stop =
  let name_start = a.spans.(5 * i) in
  let len = a.spans.((5 * i) + 1) - name_start in
  len = stop - start && same_bytes a.src name_start src start len

let attr_name a i =
  String.sub a.src a.spans.(5 * i) (a.spans.((5 * i) + 1) - a.spans.(5 * i))

(* Decode [src.[p, stop)], whose references the scan has checked. *)
let rec decode_into buf src p stop =
  if p < stop then
    match String.unsafe_get src p with
    | '&' ->
      let semi = String.index_from src p ';' in
      Buffer.add_string buf
        (Result.get_ok (entity_value (String.sub src (p + 1) (semi - p - 1))));
      decode_into buf src (semi + 1) stop
    | c ->
      Buffer.add_char buf c;
      decode_into buf src (p + 1) stop

let attr_value a i =
  let start = a.spans.((5 * i) + 2) and stop = a.spans.((5 * i) + 3) in
  if a.spans.((5 * i) + 4) = 0 then String.sub a.src start (stop - start)
  else begin
    let buf = Buffer.create (stop - start) in
    decode_into buf a.src start stop;
    Buffer.contents buf
  end

let rec find_attribute a name i =
  if i = a.count then None
  else if attr_named a i name 0 (String.length name) then Some (attr_value a i)
  else find_attribute a name (i + 1)

let attribute a name = find_attribute a name 0


let rec skip_until st terminator what =
  if eof st then fail st (Printf.sprintf "unterminated %s" what)
  else if looking_at st terminator then st.pos <- st.pos + String.length terminator
  else begin
    st.pos <- st.pos + 1;
    skip_until st terminator what
  end

(* Skip comments / processing instructions / prolog; returns true when
   something was skipped. *)
let skip_misc st =
  if looking_at st "<!--" then begin
    st.pos <- st.pos + 4;
    skip_until st "-->" "comment";
    true
  end
  else if looking_at st "<?" then begin
    st.pos <- st.pos + 2;
    skip_until st "?>" "processing instruction";
    true
  end
  else false

let rec skip_all_misc st =
  skip_spaces st;
  if skip_misc st then skip_all_misc st

let add_text st c s ~pos ~len =
  if c.text <> None then Buffer.add_substring st.text_buf s pos len

let flush_text st c =
  match c.text with
  | Some emit when Buffer.length st.text_buf > 0 ->
    emit (Buffer.contents st.text_buf);
    Buffer.clear st.text_buf
  | Some _ | None -> ()

(* The attributes and end of a start tag. *)
let rec tag_rest st c tag =
  skip_spaces st;
  match peek st with
  | '>' ->
    st.pos <- st.pos + 1;
    c.start_tag tag st.attrs;
    st.open_tags <- tag :: st.open_tags
  | '/' ->
    st.pos <- st.pos + 1;
    expect st '>';
    c.start_tag tag st.attrs;
    c.end_tag ()
  | ch when is_name_start ch ->
    let name_start = scan_name st in
    let name_end = st.pos in
    for i = 0 to st.attrs.count - 1 do
      if attr_named st.attrs i st.input name_start name_end then
        fail st
          (Printf.sprintf "duplicate attribute %s"
             (String.sub st.input name_start (name_end - name_start)))
    done;
    skip_spaces st;
    expect st '=';
    skip_spaces st;
    scan_attr_value st ~name_start ~name_end;
    tag_rest st c tag
  | ch -> fail st (Printf.sprintf "unexpected %C in element tag" ch)

(* The rest of a start tag, its '<' consumed. *)
let start_tag st c =
  let tag = parse_name st in
  st.attrs.count <- 0;
  tag_rest st c tag

(* A closing tag of the innermost open element, at its "</". *)
let end_tag st c tag =
  st.pos <- st.pos + 2;
  let start = scan_name st in
  let len = st.pos - start in
  if len <> String.length tag || not (same_bytes st.input start tag 0 len) then
    fail st
      (Printf.sprintf "mismatched closing tag </%s> for <%s>"
         (String.sub st.input start len) tag);
  skip_spaces st;
  expect st '>';
  flush_text st c;
  st.open_tags <- List.tl st.open_tags;
  c.end_tag ()

(* The body of a CDATA section that started at [start]. *)
let rec cdata st c start =
  if eof st then fail st "unterminated CDATA section"
  else if looking_at st "]]>" then begin
    add_text st c st.input ~pos:start ~len:(st.pos - start);
    st.pos <- st.pos + 3
  end
  else begin
    st.pos <- st.pos + 1;
    cdata st c start
  end

(* One item of the innermost open element's content. *)
let content st c tag =
  if eof st then fail st (Printf.sprintf "unterminated element <%s>" tag)
  else
    match String.unsafe_get st.input st.pos with
    | '<' ->
      if looking_at st "</" then end_tag st c tag
      else if looking_at st "<![CDATA[" then begin
        st.pos <- st.pos + 9;
        cdata st c st.pos
      end
      else if skip_misc st then ()
      else begin
        flush_text st c;
        st.pos <- st.pos + 1;
        start_tag st c
      end
    | '&' ->
      st.pos <- st.pos + 1;
      let decoded = parse_entity st in
      add_text st c decoded ~pos:0 ~len:(String.length decoded)
    | _ ->
      let start = st.pos in
      while
        (not (eof st))
        && (match String.unsafe_get st.input st.pos with '<' | '&' -> false | _ -> true)
      do
        st.pos <- st.pos + 1
      done;
      add_text st c st.input ~pos:start ~len:(st.pos - start)

let rec elements st c =
  match st.open_tags with
  | [] -> ()
  | tag :: _ ->
    content st c tag;
    elements st c

let scan c input =
  let st =
    { input; len = String.length input; pos = 0; open_tags = [];
      attrs = { src = input; count = 0; spans = Array.make 40 0 };
      text_buf = Buffer.create (if c.text = None then 1 else 64) }
  in
  try
    skip_all_misc st;
    if looking_at st "<!DOCTYPE" then fail st "DTDs are not supported";
    if eof st then fail st "no root element";
    expect st '<';
    start_tag st c;
    elements st c;
    skip_all_misc st;
    if not (eof st) then fail st "content after the root element";
    Ok ()
  with Fail e -> Error e

(* An element under construction: children in reverse. *)
type frame = {
  tag : string;
  attrs : (string * string) list;
  mutable children : Ast.t list;
}

let document input =
  let frames = ref [] and root = ref None in
  let add node =
    match !frames with f :: _ -> f.children <- node :: f.children | [] -> ()
  in
  let start_tag tag attrs =
    let attrs = List.init attrs.count (fun i -> (attr_name attrs i, attr_value attrs i)) in
    frames := { tag; attrs; children = [] } :: !frames
  in
  let end_tag () =
    match !frames with
    | [] -> assert false
    | f :: rest ->
      frames := rest;
      let e = { Ast.tag = f.tag; attrs = f.attrs; children = List.rev f.children } in
      (match rest with [] -> root := Some e | _ :: _ -> add (Ast.Element e))
  in
  match scan { start_tag; end_tag; text = Some (fun s -> add (Ast.Text s)) } input with
  | Error e -> Error e
  | Ok () -> Ok (Option.get !root)
