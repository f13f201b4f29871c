type error = {
  line : int;
  column : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.column e.message

exception Fail of error

type state = {
  input : string;
  mutable pos : int;
  mutable line : int;
  mutable column : int;
}

let fail st message = raise (Fail { line = st.line; column = st.column; message })

let eof st = st.pos >= String.length st.input

let peek st = if eof st then '\000' else st.input.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.input.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.column <- 1
    end
    else st.column <- st.column + 1;
    st.pos <- st.pos + 1
  end

let next st =
  let c = peek st in
  if c = '\000' && eof st then fail st "unexpected end of input";
  advance st;
  c

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, found %C" c got)

let looking_at st prefix =
  let len = String.length prefix in
  st.pos + len <= String.length st.input
  && String.sub st.input st.pos len = prefix

let skip st n =
  for _ = 1 to n do
    advance st
  done

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  if not (is_name_start (peek st)) then
    fail st (Printf.sprintf "expected a name, found %C" (peek st));
  let buf = Buffer.create 16 in
  while (not (eof st)) && is_name_char (peek st) do
    Buffer.add_char buf (next st)
  done;
  Buffer.contents buf

(* Decode one entity reference, the leading '&' already consumed. *)
let parse_entity st =
  let buf = Buffer.create 8 in
  let rec read () =
    match next st with
    | ';' -> Buffer.contents buf
    | c when Buffer.length buf > 10 ->
      ignore c;
      fail st "entity reference too long"
    | c ->
      Buffer.add_char buf c;
      read ()
  in
  let name = read () in
  match name with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    let decode_numeric digits base =
      match int_of_string_opt (base ^ digits) with
      | Some code when code > 0 && Uchar.is_valid code ->
        (* Encode the scalar value back to UTF-8. Surrogates (D800-DFFF) and
           codes past 10FFFF are not scalar values and take the error below. *)
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.of_int code);
        Buffer.contents b
      | Some _ | None -> fail st (Printf.sprintf "invalid character reference &%s;" name)
    in
    if String.length name > 2 && name.[0] = '#' && (name.[1] = 'x' || name.[1] = 'X')
    then decode_numeric (String.sub name 2 (String.length name - 2)) "0x"
    else if String.length name > 1 && name.[0] = '#' then
      decode_numeric (String.sub name 1 (String.length name - 1)) ""
    else fail st (Printf.sprintf "unknown entity &%s;" name)

let parse_attr_value st =
  let quote = next st in
  if quote <> '"' && quote <> '\'' then fail st "expected a quoted attribute value";
  let buf = Buffer.create 16 in
  let rec read () =
    match next st with
    | c when c = quote -> Buffer.contents buf
    | '&' ->
      Buffer.add_string buf (parse_entity st);
      read ()
    | '<' -> fail st "'<' is not allowed in attribute values"
    | c ->
      Buffer.add_char buf c;
      read ()
  in
  read ()

let skip_until st terminator what =
  let rec go () =
    if eof st then fail st (Printf.sprintf "unterminated %s" what)
    else if looking_at st terminator then skip st (String.length terminator)
    else begin
      advance st;
      go ()
    end
  in
  go ()

(* Skip comments / processing instructions / prolog; returns true when
   something was skipped. *)
let skip_misc st =
  if looking_at st "<!--" then begin
    skip st 4;
    skip_until st "-->" "comment";
    true
  end
  else if looking_at st "<?" then begin
    skip st 2;
    skip_until st "?>" "processing instruction";
    true
  end
  else false

let rec skip_all_misc st =
  skip_spaces st;
  if skip_misc st then skip_all_misc st

let rec parse_element st =
  expect st '<';
  let tag = parse_name st in
  let rec parse_attrs acc =
    skip_spaces st;
    match peek st with
    | '>' ->
      advance st;
      let children = parse_content st tag in
      Ast.{ tag; attrs = List.rev acc; children }
    | '/' ->
      advance st;
      expect st '>';
      Ast.{ tag; attrs = List.rev acc; children = [] }
    | c when is_name_start c ->
      let name = parse_name st in
      if List.mem_assoc name acc then
        fail st (Printf.sprintf "duplicate attribute %s" name);
      skip_spaces st;
      expect st '=';
      skip_spaces st;
      let value = parse_attr_value st in
      parse_attrs ((name, value) :: acc)
    | c -> fail st (Printf.sprintf "unexpected %C in element tag" c)
  in
  parse_attrs []

and parse_content st tag =
  let children = ref [] in
  let text_buf = Buffer.create 32 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      children := Ast.Text (Buffer.contents text_buf) :: !children;
      Buffer.clear text_buf
    end
  in
  let rec go () =
    if eof st then fail st (Printf.sprintf "unterminated element <%s>" tag)
    else if looking_at st "</" then begin
      skip st 2;
      let closing = parse_name st in
      if closing <> tag then
        fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
      skip_spaces st;
      expect st '>';
      flush_text ()
    end
    else if looking_at st "<![CDATA[" then begin
      skip st 9;
      let start = st.pos in
      let rec find () =
        if eof st then fail st "unterminated CDATA section"
        else if looking_at st "]]>" then begin
          Buffer.add_string text_buf (String.sub st.input start (st.pos - start));
          skip st 3
        end
        else begin
          advance st;
          find ()
        end
      in
      find ();
      go ()
    end
    else if skip_misc st then go ()
    else if peek st = '<' then begin
      flush_text ();
      let child = parse_element st in
      children := Ast.Element child :: !children;
      go ()
    end
    else
      match next st with
      | '&' ->
        Buffer.add_string text_buf (parse_entity st);
        go ()
      | c ->
        Buffer.add_char text_buf c;
        go ()
  in
  go ();
  List.rev !children

let document input =
  let st = { input; pos = 0; line = 1; column = 1 } in
  try
    skip_all_misc st;
    if looking_at st "<!DOCTYPE" then fail st "DTDs are not supported";
    if eof st then fail st "no root element";
    let root = parse_element st in
    skip_all_misc st;
    if not (eof st) then fail st "content after the root element";
    Ok root
  with Fail e -> Error e
