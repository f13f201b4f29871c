open Wolves_workflow
module Bitset = Wolves_graph.Bitset
module Reach = Wolves_graph.Reach
module Algo = Wolves_graph.Algo

type error = {
  position : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "at offset %d: %s" e.position e.message

exception Fail of error

let fail position fmt =
  Format.kasprintf (fun message -> raise (Fail { position; message })) fmt

(* --- lexer --- *)

type token =
  | Name of string   (* 'quoted literal' *)
  | Ident of string  (* bare keyword or function *)
  | Lparen
  | Rparen
  | Amp
  | Bar
  | Minus
  | Bang
  | End

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let c = input.[!pos] in
    let start = !pos in
    (match c with
     | ' ' | '\t' | '\n' | '\r' -> incr pos
     | '(' ->
       tokens := (Lparen, start) :: !tokens;
       incr pos
     | ')' ->
       tokens := (Rparen, start) :: !tokens;
       incr pos
     | '&' ->
       tokens := (Amp, start) :: !tokens;
       incr pos
     | '|' ->
       tokens := (Bar, start) :: !tokens;
       incr pos
     | '-' ->
       tokens := (Minus, start) :: !tokens;
       incr pos
     | '!' ->
       tokens := (Bang, start) :: !tokens;
       incr pos
     | '\'' ->
       incr pos;
       let buf = Buffer.create 16 in
       let closed = ref false in
       while (not !closed) && !pos < n do
         if input.[!pos] = '\'' then begin
           closed := true;
           incr pos
         end
         else begin
           Buffer.add_char buf input.[!pos];
           incr pos
         end
       done;
       if not !closed then fail start "unterminated literal";
       tokens := (Name (Buffer.contents buf), start) :: !tokens
     | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
       let buf = Buffer.create 16 in
       while
         !pos < n
         &&
         match input.[!pos] with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false
       do
         Buffer.add_char buf input.[!pos];
         incr pos
       done;
       tokens := (Ident (Buffer.contents buf), start) :: !tokens
     | c -> fail start "unexpected character %C" c)
  done;
  List.rev ((End, n) :: !tokens)

(* --- parser (recursive descent producing an AST) --- *)

type ast =
  | Literal of string * int
  | Keyword of string * int
  | Apply of string * int * ast
  | Union of ast * ast
  | Diff of ast * ast
  | Inter of ast * ast
  | Complement of ast

type stream = {
  mutable tokens : (token * int) list;
}

let peek st = List.hd st.tokens

let advance st = st.tokens <- List.tl st.tokens

let functions = [ "ancestors"; "descendants"; "producers"; "consumers"; "composites" ]

let keywords = [ "all"; "none"; "sources"; "sinks"; "unsound" ]

let rec parse_expr st =
  let left = ref (parse_term st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Bar, _ ->
      advance st;
      left := Union (!left, parse_term st)
    | Minus, _ ->
      advance st;
      left := Diff (!left, parse_term st)
    | _ -> continue_ := false
  done;
  !left

and parse_term st =
  let left = ref (parse_factor st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Amp, _ ->
      advance st;
      left := Inter (!left, parse_factor st)
    | _ -> continue_ := false
  done;
  !left

and parse_factor st =
  match peek st with
  | Bang, _ ->
    advance st;
    Complement (parse_factor st)
  | Lparen, _ ->
    advance st;
    let inner = parse_expr st in
    (match peek st with
     | Rparen, _ ->
       advance st;
       inner
     | _, p -> fail p "expected ')'")
  | Name literal, p ->
    advance st;
    Literal (literal, p)
  | Ident id, p when List.mem id functions ->
    advance st;
    (match peek st with
     | Lparen, _ ->
       advance st;
       let arg = parse_expr st in
       (match peek st with
        | Rparen, _ ->
          advance st;
          Apply (id, p, arg)
        | _, p' -> fail p' "expected ')' closing %s(...)" id)
     | _, p' -> fail p' "%s needs an argument in parentheses" id)
  | Ident id, p when List.mem id keywords ->
    advance st;
    Keyword (id, p)
  | Ident id, p ->
    fail p "unknown identifier %S (functions: %s; keywords: %s)" id
      (String.concat ", " functions)
      (String.concat ", " keywords)
  | End, p -> fail p "expected an expression"
  | (Rparen | Amp | Bar | Minus), p -> fail p "expected an expression"

let parse input =
  let st = { tokens = tokenize input } in
  let ast = parse_expr st in
  match peek st with
  | End, _ -> ast
  | _, p -> fail p "trailing input after the expression"

(* --- evaluation --- *)

let rec eval_ast view ast =
  let spec = View.spec view in
  let n = Spec.n_tasks spec in
  let r = Spec.reach spec in
  match ast with
  | Literal (name, p) ->
    (match Spec.task_of_name spec name with
     | Some t -> Bitset.of_list n [ t ]
     | None ->
       (match View.composite_of_name view name with
        | Some c -> Bitset.of_list n (View.members view c)
        | None -> fail p "no task or composite named %S" name))
  | Keyword ("all", _) ->
    let s = Bitset.create n in
    Bitset.fill s;
    s
  | Keyword ("none", _) -> Bitset.create n
  | Keyword ("sources", _) -> Bitset.of_list n (Algo.sources (Spec.graph spec))
  | Keyword ("sinks", _) -> Bitset.of_list n (Algo.sinks (Spec.graph spec))
  | Keyword ("unsound", _) ->
    let report = Wolves_core.Soundness.validate view in
    let s = Bitset.create n in
    List.iter
      (fun (c, _) -> List.iter (Bitset.add s) (View.members view c))
      report.Wolves_core.Soundness.unsound;
    s
  | Keyword (other, p) -> fail p "unknown keyword %S" other
  | Apply ("ancestors", _, arg) ->
    Reach.ancestors_of_set r (eval_ast view arg)
  | Apply ("descendants", _, arg) ->
    Reach.descendants_of_set r (eval_ast view arg)
  | Apply ("producers", _, arg) ->
    let s = Bitset.create n in
    Bitset.iter
      (fun t -> List.iter (Bitset.add s) (Spec.producers spec t))
      (eval_ast view arg);
    s
  | Apply ("consumers", _, arg) ->
    let s = Bitset.create n in
    Bitset.iter
      (fun t -> List.iter (Bitset.add s) (Spec.consumers spec t))
      (eval_ast view arg);
    s
  | Apply ("composites", _, arg) ->
    (* Mark each touched composite once, then add its members once: the
       work is O(|arg| + members of the touched composites), not
       O(|arg| · composite size). *)
    let touched = Bitset.create (View.n_composites view) in
    Bitset.iter
      (fun t -> Bitset.add touched (View.composite_of_task view t))
      (eval_ast view arg);
    let s = Bitset.create n in
    Bitset.iter
      (fun c -> List.iter (Bitset.add s) (View.members view c))
      touched;
    s
  | Apply (other, p, _) -> fail p "unknown function %S" other
  | Complement a ->
    let n = Spec.n_tasks (View.spec view) in
    let all = Bitset.create n in
    Bitset.fill all;
    Bitset.diff all (eval_ast view a)
  | Union (a, b) -> Bitset.union (eval_ast view a) (eval_ast view b)
  | Inter (a, b) -> Bitset.inter (eval_ast view a) (eval_ast view b)
  | Diff (a, b) -> Bitset.diff (eval_ast view a) (eval_ast view b)

let eval view input =
  match eval_ast view (parse input) with
  | result -> Ok result
  | exception Fail e -> Error e

let eval_names view input =
  match eval view input with
  | Error e -> Error e
  | Ok set ->
    Ok (List.map (Spec.task_name (View.spec view)) (Bitset.elements set))
