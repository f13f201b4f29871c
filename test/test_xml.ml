(* Tests for the XML substrate: parser, printer, round-trips, failure
   injection on malformed documents. *)

module Ast = Wolves_xml.Ast
module Parse = Wolves_xml.Parse
module Print = Wolves_xml.Print

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parse_ok src =
  match Parse.document src with
  | Ok e -> e
  | Error err -> Alcotest.failf "parse error: %a" Parse.pp_error err

let parse_err src =
  match Parse.document src with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" src
  | Error err -> err

let test_parse_simple () =
  let e = parse_ok "<a x=\"1\"><b/><b y='2'>hi</b></a>" in
  check_string "root tag" "a" e.Ast.tag;
  Alcotest.(check (option string)) "attr" (Some "1") (Ast.attr e "x");
  Alcotest.(check int) "two b children" 2 (List.length (Ast.children_named e "b"));
  let b2 = List.nth (Ast.children_named e "b") 1 in
  check_string "text content" "hi" (Ast.text_content b2);
  Alcotest.(check (option string)) "single-quoted attr" (Some "2") (Ast.attr b2 "y")

let test_parse_prolog_comments () =
  let e =
    parse_ok
      "<?xml version=\"1.0\"?>\n<!-- header -->\n<root><!-- inner -->\n<leaf/></root>\n<!-- trailer -->"
  in
  check_string "tag" "root" e.Ast.tag;
  Alcotest.(check int) "one element child" 1
    (List.length (Ast.children_named e "leaf"))

let test_parse_entities () =
  let e = parse_ok "<t a=\"x&amp;y&#65;\">1 &lt; 2 &gt; 0 &quot;q&quot; &apos;&#x41;</t>" in
  Alcotest.(check (option string)) "attr entities" (Some "x&yA") (Ast.attr e "a");
  check_string "text entities" "1 < 2 > 0 \"q\" 'A" (Ast.text_content e)

let test_parse_cdata () =
  let e = parse_ok "<t><![CDATA[a <raw> & b]]></t>" in
  check_string "cdata" "a <raw> & b" (Ast.text_content e)

let test_parse_nested_depth () =
  let depth = 2_000 in
  let buf = Buffer.create (depth * 8) in
  for _ = 1 to depth do
    Buffer.add_string buf "<d>"
  done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do
    Buffer.add_string buf "</d>"
  done;
  let e = parse_ok (Buffer.contents buf) in
  check_string "deeply nested" "x" (Ast.text_content e)

let test_parse_errors () =
  let cases =
    [ ("", "no root element");
      ("<a>", "unterminated");
      ("<a></b>", "mismatched");
      ("<a x=\"1\" x=\"2\"/>", "duplicate attribute");
      ("<a>&bogus;</a>", "unknown entity");
      ("<a>&#xFFFFFF;</a>", "invalid character reference");
      ("<a>&#xD800;</a>", "invalid character reference");
      ("<a x=\"&#xDFFF;\"/>", "invalid character reference");
      ("<a/><b/>", "content after the root");
      ("<a x=1/>", "quoted attribute");
      ("<!DOCTYPE html><a/>", "DTD");
      ("<a b=\"<\"/>", "not allowed in attribute");
      ("<a><!-- no end </a>", "unterminated comment");
      ("<1tag/>", "expected a name") ]
  in
  List.iter
    (fun (src, expected_fragment) ->
      let err = parse_err src in
      let msg = Format.asprintf "%a" Parse.pp_error err in
      let contains =
        let ln = String.length expected_fragment and lh = String.length msg in
        let rec go i =
          i + ln <= lh && (String.sub msg i ln = expected_fragment || go (i + 1))
        in
        go 0
      in
      check_bool (Printf.sprintf "%S -> %s" src expected_fragment) true contains)
    cases

let test_error_position () =
  let err = parse_err "<a>\n  <b oops</b>\n</a>" in
  Alcotest.(check int) "line" 2 err.Parse.line

(* Exact line/column for the classic malformed-document shapes: unclosed
   elements, mismatched closing tags, and broken attribute syntax. The
   column is where the scanner stopped, 1-based. *)
let test_error_positions_exact () =
  let cases =
    [ (* input, line, column, message fragment *)
      ("<root>\n  <child/>\n", 3, 1, "unterminated element <root>");
      ("<a>\n  <b>\n</a>", 3, 4, "mismatched closing tag </a> for <b>");
      ("<a>\n  <b>\n  </c>\n</a>", 3, 6, "mismatched closing tag </c>");
      ("<a>\n  <b oops</b>\n</a>", 2, 11, "expected '='");
      ("<a>\n<b x=1/>\n</a>", 2, 7, "quoted attribute value");
      ("<a x=\"1\"\ny=\"2\" x=\"3\"/>", 2, 8, "duplicate attribute x");
      ("<a>\n\n   &nope;</a>", 3, 10, "unknown entity &nope;") ]
  in
  List.iter
    (fun (src, line, column, fragment) ->
      let err = parse_err src in
      Alcotest.(check int) (Printf.sprintf "%S line" src) line err.Parse.line;
      Alcotest.(check int)
        (Printf.sprintf "%S column" src)
        column err.Parse.column;
      let msg = Format.asprintf "%a" Parse.pp_error err in
      let contains =
        let ln = String.length fragment and lh = String.length msg in
        let rec go i =
          i + ln <= lh && (String.sub msg i ln = fragment || go (i + 1))
        in
        go 0
      in
      check_bool (Printf.sprintf "%S message" src) true contains)
    cases;
  (* pp_error renders the position itself *)
  let rendered =
    Format.asprintf "%a" Parse.pp_error (parse_err "<a>\n<b x=1/>\n</a>")
  in
  check_string "pp_error format" "line 2, column 7: expected a quoted attribute value"
    rendered

let test_print_escapes () =
  check_string "text" "a&amp;b&lt;c&gt;d" (Print.escape_text "a&b<c>d");
  check_string "attr" "&quot;x&amp;&quot;" (Print.escape_attr "\"x&\"")

let test_print_pretty () =
  let doc =
    Ast.{ tag = "workflow";
          attrs = [ ("name", "w & v") ];
          children =
            [ Ast.element ~attrs:[ ("name", "t1") ] "task";
              Ast.element ~attrs:[ ("name", "t2") ]
                ~children:[ Ast.text "notes < here" ] "task" ] }
  in
  let rendered = Print.to_string doc in
  check_string "pretty output"
    "<?xml version=\"1.0\"?>\n\
     <workflow name=\"w &amp; v\">\n\
     \  <task name=\"t1\"/>\n\
     \  <task name=\"t2\">notes &lt; here</task>\n\
     </workflow>\n"
    rendered

let test_roundtrip_fixed () =
  let doc =
    Ast.{ tag = "entity";
          attrs = [ ("name", "top"); ("class", "Composite") ];
          children =
            [ Ast.element ~attrs:[ ("name", "a&b"); ("value", "x\"y") ] "property";
              Ast.element ~attrs:[ ("name", "inner") ]
                ~children:[ Ast.element ~attrs:[ ("name", "deep") ] "entity" ]
                "entity";
              Ast.element ~children:[ Ast.text "line1\nline2 <>&" ] "doc" ] }
  in
  let reparsed = parse_ok (Print.to_string doc) in
  check_bool "round trip" true
    (Ast.equal
       (Ast.strip_whitespace (Ast.Element doc))
       (Ast.strip_whitespace (Ast.Element reparsed)))

(* Random document generator for the round-trip property. *)
let gen_doc =
  let open QCheck2.Gen in
  let name = oneofl [ "entity"; "property"; "relation"; "link"; "doc" ] in
  let attr_name = oneofl [ "name"; "class"; "value"; "rel" ] in
  (* Attribute values and text exercise the escaping machinery. *)
  let attr_value =
    string_size ~gen:(oneofl [ 'a'; 'b'; '&'; '<'; '>'; '"'; '\''; ' '; '\n' ])
      (int_range 0 8)
  in
  let fix_attrs attrs =
    (* Deduplicate attribute names: duplicates are a parse error by design. *)
    List.fold_left
      (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
      [] attrs
  in
  let rec elem depth =
    let children =
      if depth = 0 then return []
      else
        list_size (int_range 0 3)
          (oneof
             [ map (fun e -> Ast.Element e) (elem (depth - 1));
               map
                 (fun s -> Ast.Text (if s = "" then "x" else s))
                 (string_size ~gen:(oneofl [ 'a'; '&'; '<'; ' ' ]) (int_range 1 6)) ])
    in
    map3
      (fun tag attrs children -> Ast.{ tag; attrs = fix_attrs attrs; children })
      name
      (list_size (int_range 0 3) (pair attr_name attr_value))
      children
  in
  elem 3

(* Adjacent text nodes merge on reparse, and indentation introduces blank
   text nodes: merge adjacents first, then drop blank-only texts. *)
let is_blank s = String.for_all (fun c -> c = ' ' || c = '\n' || c = '\t') s

let rec normalize node =
  match node with
  | Ast.Text _ as t -> t
  | Ast.Element e ->
    let merged =
      List.fold_left
        (fun acc child ->
          match (normalize child, acc) with
          | Ast.Text s, Ast.Text s' :: rest -> Ast.Text (s' ^ s) :: rest
          | c, acc -> c :: acc)
        [] e.children
    in
    let children =
      List.filter
        (function Ast.Text s -> not (is_blank s) | Ast.Element _ -> true)
        (List.rev merged)
    in
    Ast.Element { e with children }

let roundtrip_prop =
  QCheck2.Test.make ~name:"print |> parse round-trips (modulo indentation)"
    ~count:300 gen_doc
    (fun doc ->
      match Parse.document (Print.to_string doc) with
      | Error _ -> false
      | Ok reparsed ->
        Ast.equal (normalize (Ast.Element doc)) (normalize (Ast.Element reparsed)))


(* Robustness: the parser must return Ok/Error on arbitrary input, never
   raise, and never loop. *)
let fuzz_random_bytes =
  QCheck2.Test.make ~name:"parser total on random bytes" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun input ->
      match Parse.document input with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let fuzz_mutated_documents =
  QCheck2.Test.make ~name:"parser total on mutated valid documents" ~count:500
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 0 255) gen_doc)
    (fun (pos, byte, doc) ->
      let text = Print.to_string doc in
      let mutated = Bytes.of_string text in
      if Bytes.length mutated > 0 then
        Bytes.set mutated (pos mod Bytes.length mutated) (Char.chr byte);
      match Parse.document (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let fuzz_xml_entity_bombs =
  QCheck2.Test.make ~name:"hostile entity strings rejected cleanly" ~count:200
    QCheck2.Gen.(string_size ~gen:(oneofl [ '&'; '#'; 'x'; '9'; ';'; 'a' ]) (int_range 0 40))
    (fun payload ->
      match Parse.document (Printf.sprintf "<a>%s</a>" payload) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* The recursive-descent parser the scanner replaced, kept (less its
   printer) as the reference [Parse.document] must match: the same tree, attribute order
   included, and on rejection the same line, column and message. *)
module Reference = struct
  type error = {
    line : int;
    column : int;
    message : string;
  }

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
end

let same_as_reference input =
  match (Parse.document input, Reference.document input) with
  | Ok e, Ok e' -> e = e'
  | Error e, Error e' ->
    e.Parse.line = e'.Reference.line
    && e.Parse.column = e'.Reference.column
    && e.Parse.message = e'.Reference.message
  | Ok _, Error _ | Error _, Ok _ -> false

(* The fuzz inputs above, and mutated MoML. *)
let equivalence_inputs =
  QCheck2.Gen.(
    frequency
      [ (1, string_size ~gen:(char_range '\000' '\255') (int_range 0 200));
        ( 1,
          let+ pos = int_range 0 1000 and+ byte = int_range 0 255 and+ doc = gen_doc in
          let mutated = Bytes.of_string (Print.to_string doc) in
          Bytes.set mutated (pos mod Bytes.length mutated) (Char.chr byte);
          Bytes.to_string mutated );
        ( 1,
          let+ payload =
            string_size ~gen:(oneofl [ '&'; '#'; 'x'; '9'; ';'; 'a' ]) (int_range 0 40)
          in
          Printf.sprintf "<a>%s</a>" payload );
        (1, map (fun doc -> Print.to_string doc) gen_doc);
        (1, Moml_corpus.document);
        (6, Moml_corpus.mutated) ])

(* The scanner records attribute offsets in an array that starts with room
   for eight; a tag with more, some values holding references, some
   duplicated, must still match. *)
let test_many_attributes () =
  let tag k dup =
    Printf.sprintf "<t %s%s/>"
      (String.concat " "
         (List.init k (fun i -> Printf.sprintf "a%d=\"v%d%s\"" i i (if i mod 3 = 0 then "&amp;&#x41;" else ""))))
      (if dup then " a5='again'" else "")
  in
  List.iter
    (fun src ->
      check_bool src true (same_as_reference src))
    [ tag 7 false; tag 8 false; tag 9 false; tag 20 false; tag 20 true;
      "<r>" ^ tag 12 false ^ tag 3 false ^ tag 17 true ^ "</r>" ]

(* QCHECK_LONG=1 runs 35,000 inputs, about 22,000 of them mutated
   documents. *)
let scanner_matches_reference =
  QCheck2.Test.make ~name:"scanner = reference parser (trees and errors)"
    ~count:1000 ~long_factor:35 ~print:String.escaped equivalence_inputs
    same_as_reference

let () =
  Alcotest.run "wolves_xml"
    [ ( "parse",
        [ Alcotest.test_case "simple document" `Quick test_parse_simple;
          Alcotest.test_case "prolog and comments" `Quick test_parse_prolog_comments;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "deep nesting" `Quick test_parse_nested_depth;
          Alcotest.test_case "malformed documents rejected" `Quick test_parse_errors;
          Alcotest.test_case "error carries position" `Quick test_error_position;
          Alcotest.test_case "error positions exact" `Quick
            test_error_positions_exact ] );
      ( "print",
        [ Alcotest.test_case "escaping" `Quick test_print_escapes;
          Alcotest.test_case "pretty printing" `Quick test_print_pretty;
          Alcotest.test_case "fixed round trip" `Quick test_roundtrip_fixed;
          QCheck_alcotest.to_alcotest roundtrip_prop ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest fuzz_random_bytes;
          QCheck_alcotest.to_alcotest fuzz_mutated_documents;
          QCheck_alcotest.to_alcotest fuzz_xml_entity_bombs ] );
      ( "equiv",
        [ Alcotest.test_case "many attributes" `Quick test_many_attributes;
          QCheck_alcotest.to_alcotest scanner_matches_reference ] ) ]
