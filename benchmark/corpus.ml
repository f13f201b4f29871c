(* The four workloads: their seeded corpora and request lists. The seed
   only reaches the generated layered and entangled workflows and the
   request order and targets; the Pegasus-shaped templates are fixed, so
   every seed exercises the same mix of costs. *)

open Wolves_workflow
module T = Wolves_workload.Templates
module G = Wolves_workload.Generate
module V = Wolves_workload.Views

type workload = Prov_query | Prov_correct | Prov_large | Audit

let all = [ Prov_query; Prov_correct; Prov_large; Audit ]

let name = function
  | Prov_query -> "prov-query"
  | Prov_correct -> "prov-correct"
  | Prov_large -> "prov-large"
  | Audit -> "audit"

let of_name s = List.find_opt (fun w -> name w = s) all

(* One corpus entry: its id (the file basename) and the file's bytes. *)
type doc = { id : string; text : string }

type format = Wf | Moml

let format = function Prov_query | Prov_correct -> Wf | Prov_large | Audit -> Moml
let ext w = match format w with Wf -> ".wf" | Moml -> ".moml"

let rng seed salt = Random.State.make [| seed; salt |]

let templates scales =
  List.concat_map
    (fun suite ->
      List.map
        (fun scale ->
          ( Printf.sprintf "%s-%d" (T.suite_name suite) scale,
            T.natural_view suite (T.generate suite ~scale) ))
        scales)
    T.all_suites

let layered ~seed n =
  let s = Random.State.int (rng seed n) 1_000_000 in
  let spec = G.generate G.Layered ~seed:s ~size:n in
  (Printf.sprintf "layered-%d" n, V.build ~seed:s (V.Topological_bands 8) spec)

let entangled ~seed =
  V.unsound_corpus
    ~seed:(Random.State.int (rng seed 1) 1_000_000)
    ~families:G.all_families ~sizes:[ 50; 100; 200; 300; 400 ] ~per_cell:2
  |> List.mapi (fun i (_, view) -> (Printf.sprintf "entangled-%02d" i, view))

let views w ~seed =
  match w with
  | Prov_query ->
      templates [ 4; 8; 16; 32 ] @ List.map (layered ~seed) [ 60; 120; 240; 480 ]
  | Prov_correct ->
      (* no scale 16 (nor CyberShake 8): their 100-200 ms corrections
         would leave a run too few rounds to be steady *)
      templates [ 4; 6; 12; 24 ] @ List.map (layered ~seed) [ 60; 120; 240; 480 ]
  | Prov_large ->
      List.map (layered ~seed) [ 5000; 10000 ]
      @ [ ("montage-1024", T.natural_view T.Montage (T.generate T.Montage ~scale:1024));
          ( "epigenomics-512",
            T.natural_view T.Epigenomics (T.generate T.Epigenomics ~scale:512) ) ]
  | Audit ->
      templates [ 4; 6; 8; 12; 16; 24; 32; 48; 64; 96; 128 ] @ entangled ~seed

let render w view =
  match format w with
  | Wf -> Wolves_lang.Wfdsl.to_string view
  | Moml -> Wolves_moml.Moml.to_string view

let docs w ~seed =
  List.map (fun (id, v) -> { id; text = render w v }) (views w ~seed)

(* The view the server builds from a document: oracles and in-process
   references must see the same task numbering, so they parse the same
   bytes. *)
let parse w doc =
  let r =
    match format w with
    | Wf ->
        Result.map_error
          (Format.asprintf "%a" Wolves_lang.Wfdsl.pp_error)
          (Wolves_lang.Wfdsl.of_string doc.text)
    | Moml ->
        Result.map_error
          (Format.asprintf "%a" Wolves_moml.Moml.pp_error)
          (Wolves_moml.Moml.of_string doc.text)
  in
  match r with
  | Ok (_, view) -> view
  | Error e -> failwith (Printf.sprintf "%s: %s" doc.id e)

(* --- requests --- *)

type kind = Anc | Desc | Over | Validate | Lint | Analyze | Strong | Deadline

(* Each block holds exactly these counts, shuffled, so the mix of request
   costs does not drift with the seed. *)
let block = function
  | Prov_query ->
      [ (Anc, 6); (Desc, 4); (Over, 4); (Validate, 3); (Lint, 2); (Analyze, 1) ]
  | Prov_large -> [ (Anc, 3); (Desc, 2); (Over, 2) ]
  | Prov_correct -> [ (Strong, 1); (Deadline, 1) ]
  | Audit -> [ (Validate, 1); (Strong, 1) ]

type req = { line : string; kind : kind; id : string; target : string }

(* Answering this needs the closure in both directions, so set-up time
   covers building the reachability indexes however lazily the server
   builds them. *)
let setup_request id = Printf.sprintf "QUERY %s ancestors(sinks) & descendants(sources)" id

(* The query expression of the QUERY kinds. *)
let query kind target =
  match kind with
  | Anc -> Printf.sprintf "ancestors('%s')" target
  | Desc -> Printf.sprintf "descendants('%s')" target
  | Over -> Printf.sprintf "composites(ancestors('%s')) - ancestors('%s')" target target
  | _ -> invalid_arg "Corpus.query"

let request kind id target =
  let line =
    match kind with
    | Anc | Desc | Over -> Printf.sprintf "QUERY %s %s" id (query kind target)
    | Validate -> "VALIDATE " ^ id
    | Lint -> "LINT " ^ id
    | Analyze -> "ANALYZE " ^ id
    | Strong -> "CORRECT " ^ id
    | Deadline -> "CORRECT " ^ id ^ " DEADLINE 20"
  in
  { line; kind; id; target }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Requests per round: the fewest whole blocks after which every kind has
   dealt each corpus id the same number of times. *)
let round w ~ids =
  let blocks =
    List.fold_left
      (fun acc (_, c) ->
        let need = ids / gcd c ids in
        acc * need / gcd acc need)
      1 (block w)
  in
  blocks * List.fold_left (fun a (_, c) -> a + c) 0 (block w)

(* At least [n] requests, in whole rounds. Every kind deals corpus ids from
   successive seeded permutations. *)
let requests w ~seed views n =
  let r = round w ~ids:(List.length views) in
  let n = (n + r - 1) / r * r in
  let st = rng seed 2 in
  let views = Array.of_list views in
  let decks = Hashtbl.create 8 in
  let deal kind =
    let deck, pos =
      match Hashtbl.find_opt decks kind with
      | Some (d, p) when p < Array.length d -> (d, p)
      | _ ->
          let d = Array.init (Array.length views) Fun.id in
          shuffle st d;
          (d, 0)
    in
    Hashtbl.replace decks kind (deck, pos + 1);
    views.(deck.(pos))
  in
  let kinds =
    Array.of_list
      (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) (block w))
  in
  let out = ref [] in
  for _ = 1 to n / Array.length kinds do
    let b = Array.copy kinds in
    shuffle st b;
    Array.iter
      (fun kind ->
        let id, view = deal kind in
        let spec = View.spec view in
        let target = Spec.task_name spec (Random.State.int st (Spec.n_tasks spec)) in
        out := request kind id target :: !out)
      b
  done;
  Array.of_list (List.rev !out)

(* The audit workload's repositories: [groups] directories, document i in
   directory i mod groups, so each directory's mix is fixed. *)
let audit_groups = 21

let audit_dirs docs =
  Array.init audit_groups (fun g ->
      List.filteri (fun i _ -> i mod audit_groups = g) docs)
