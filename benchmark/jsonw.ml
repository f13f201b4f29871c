(* A small JSON writer for the result line and the run records. *)

type t =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add b = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Num x ->
      (* every digit as measured; JSON has no NaN or infinities *)
      Buffer.add_string b (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
  | Str s -> escape b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          escape b k;
          Buffer.add_string b ": ";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

let write path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')
