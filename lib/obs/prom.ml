(* Prometheus text exposition. Rendering is straight string building; the
   interesting parts are the quantile estimator behind the [_quantile]
   gauges (which [wolves top] reads) and [check], the validator CI runs
   against live scrapes so a malformed page fails the build rather than
   the first real scraper. *)

let metric_name name =
  let buf = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || c = '_' || c = ':'
        || (c >= '0' && c <= '9')
      in
      if i = 0 && c >= '0' && c <= '9' then Buffer.add_char buf '_';
      Buffer.add_char buf (if ok then c else '_'))
    name;
  Buffer.contents buf

let percentile (st : Metrics.timer_stats) q =
  if st.count = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int st.count))) in
    let rec go seen = function
      | [] -> st.max
      | (bound, n) :: rest ->
        let seen = seen + n in
        if seen >= rank then
          if Float.is_finite bound then Float.min bound st.max else st.max
        else go seen rest
    in
    go 0 st.buckets
  end

let fmt v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" v

(* Every timer shares the registry's fixed bucket bounds, so their labels
   (and the quantiles') are formatted once, here: a live scrape re-renders
   the whole page per request and must not re-format hundreds of identical
   floats. Immutable after initialisation, so any domain may render. *)
let bound_labels = Array.map fmt Metrics.bucket_bounds

let quantiles = List.map (fun q -> (q, fmt q)) [ 0.5; 0.9; 0.99 ]

(* Rendering writes straight into the buffer (no per-line ksprintf): the
   [METRICS] verb serves this page on a request path, concurrently with
   the traffic being measured, so both the time and the garbage matter. *)
let render (snap : Metrics.snapshot) =
  let buf = Buffer.create 8192 in
  let add = Buffer.add_string buf in
  let addc = Buffer.add_char buf in
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      let n = if Filename.check_suffix n "_total" then n else n ^ "_total" in
      add "# TYPE "; add n; add " counter\n";
      add n; addc ' '; add (string_of_int v); addc '\n')
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      add "# TYPE "; add n; add " gauge\n";
      add n; addc ' '; add (fmt v); addc '\n')
    snap.gauges;
  List.iter
    (fun (name, (st : Metrics.timer_stats)) ->
      if st.count > 0 then begin
        let n = metric_name name ^ "_seconds" in
        add "# TYPE "; add n; add " histogram\n";
        let seen = ref 0 in
        List.iteri
          (fun i (_, k) ->
            seen := !seen + k;
            add n; add "_bucket{le=\""; add bound_labels.(i); add "\"} ";
            add (string_of_int !seen); addc '\n')
          st.buckets;
        add n; add "_sum "; add (fmt st.sum); addc '\n';
        add n; add "_count "; add (string_of_int st.count); addc '\n';
        add "# TYPE "; add n; add "_max gauge\n";
        add n; add "_max "; add (fmt st.max); addc '\n';
        add "# TYPE "; add n; add "_quantile gauge\n";
        List.iter
          (fun (q, label) ->
            add n; add "_quantile{quantile=\""; add label; add "\"} ";
            add (fmt (percentile st q)); addc '\n')
          quantiles
      end)
    snap.timers;
  Buffer.contents buf

(* --- validation --- *)

exception Bad of string

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* [name{k="v",...} value] -> (name, labels, value). Total over the label
   grammar including backslash escapes; raises [Bad] with the reason. *)
let parse_sample line =
  let len = String.length line in
  let i = ref 0 in
  while !i < len && is_name_char line.[!i] do incr i done;
  if !i = 0 then raise (Bad "sample does not start with a metric name");
  let name = String.sub line 0 !i in
  let labels = ref [] in
  if !i < len && line.[!i] = '{' then begin
    incr i;
    let stop = ref false in
    while not !stop do
      if !i >= len then raise (Bad "unterminated label set");
      if line.[!i] = '}' then begin
        incr i;
        stop := true
      end
      else begin
        let k0 = !i in
        while !i < len && is_name_char line.[!i] do incr i done;
        let k = String.sub line k0 (!i - k0) in
        if k = "" then raise (Bad "empty label name");
        if !i >= len || line.[!i] <> '=' then raise (Bad "expected = in label");
        incr i;
        if !i >= len || line.[!i] <> '"' then
          raise (Bad "label value is not quoted");
        incr i;
        let vbuf = Buffer.create 16 in
        let closed = ref false in
        while not !closed do
          if !i >= len then raise (Bad "unterminated label value");
          (match line.[!i] with
          | '"' -> closed := true
          | '\\' ->
            if !i + 1 >= len then raise (Bad "dangling escape");
            incr i;
            Buffer.add_char vbuf
              (match line.[!i] with 'n' -> '\n' | c -> c)
          | c -> Buffer.add_char vbuf c);
          incr i
        done;
        labels := (k, Buffer.contents vbuf) :: !labels;
        if !i < len && line.[!i] = ',' then incr i
      end
    done
  end;
  while !i < len && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
  let v0 = !i in
  while !i < len && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
  if !i = v0 then raise (Bad "missing sample value");
  let tok = String.sub line v0 (!i - v0) in
  let value =
    match float_of_string_opt (String.lowercase_ascii tok) with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "unparsable value %S" tok))
  in
  (* Only an optional timestamp may follow; anything else is junk. *)
  while !i < len && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
  if !i < len && int_of_string_opt (String.sub line !i (len - !i)) = None then
    raise (Bad "trailing junk after sample value");
  (name, List.rev !labels, value)

let strip_suffix s suffix =
  if Filename.check_suffix s suffix then
    Some (String.sub s 0 (String.length s - String.length suffix))
  else None

let check page =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let finished : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let current = ref None in
  (* histogram series, keyed by family + non-le labels, in page order *)
  let hist : (string, (float * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let close_current () =
    match !current with
    | Some f ->
      Hashtbl.replace finished f ();
      current := None
    | None -> ()
  in
  let family_of name =
    let stripped suffix =
      match strip_suffix name suffix with
      | Some base when Hashtbl.mem typed base -> Some base
      | _ -> None
    in
    match stripped "_bucket" with
    | Some base -> base
    | None -> (
      match stripped "_sum" with
      | Some base -> base
      | None -> (
        match stripped "_count" with Some base -> base | None -> name))
  in
  let label_key labels =
    String.concat ","
      (List.filter_map
         (fun (k, v) -> if k = "le" then None else Some (k ^ "=" ^ v))
         labels)
  in
  try
    let lineno = ref 0 in
    String.split_on_char '\n' page
    |> List.iter (fun line ->
           incr lineno;
           let fail msg =
             raise (Bad (Printf.sprintf "line %d: %s (%s)" !lineno msg line))
           in
           let line =
             (* tolerate CRLF pages *)
             if line <> "" && line.[String.length line - 1] = '\r' then
               String.sub line 0 (String.length line - 1)
             else line
           in
           if line = "" then ()
           else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
             match String.split_on_char ' ' line with
             | [ "#"; "TYPE"; fam; ty ] ->
               if
                 not
                   (List.mem ty
                      [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
               then fail (Printf.sprintf "unknown metric type %S" ty);
               if Hashtbl.mem typed fam then
                 fail (Printf.sprintf "duplicate TYPE for %s" fam);
               if Hashtbl.mem finished fam then
                 fail (Printf.sprintf "TYPE after samples of %s" fam);
               close_current ();
               Hashtbl.replace typed fam ty
             | _ -> fail "malformed TYPE line"
           end
           else if line.[0] = '#' then ()
           else begin
             let name, labels, value =
               try parse_sample line with Bad m -> fail m
             in
             incr samples;
             let fam = family_of name in
             if not (Hashtbl.mem typed fam) then
               fail (Printf.sprintf "sample of %s before its TYPE line" fam);
             (match !current with
             | Some f when f = fam -> ()
             | _ ->
               if Hashtbl.mem finished fam then
                 fail (Printf.sprintf "family %s is not contiguous" fam);
               close_current ();
               current := Some fam);
             if Hashtbl.find typed fam = "histogram" then begin
               let key = fam ^ "\000" ^ label_key labels in
               if Filename.check_suffix name "_bucket" then begin
                 let le =
                   match List.assoc_opt "le" labels with
                   | None -> fail "histogram bucket without le label"
                   | Some le -> (
                     match
                       float_of_string_opt (String.lowercase_ascii le)
                     with
                     | Some f -> f
                     | None -> fail (Printf.sprintf "unparsable le %S" le))
                 in
                 let r =
                   match Hashtbl.find_opt hist key with
                   | Some r -> r
                   | None ->
                     let r = ref [] in
                     Hashtbl.replace hist key r;
                     r
                 in
                 r := (le, value) :: !r
               end
               else if Filename.check_suffix name "_count" then
                 Hashtbl.replace counts key value
             end
           end);
    (* cross-line checks, per histogram series *)
    Hashtbl.iter
      (fun key series ->
        let fam =
          match String.index_opt key '\000' with
          | Some i -> String.sub key 0 i
          | None -> key
        in
        let buckets = List.rev !series in
        (match buckets with
        | [] -> raise (Bad (Printf.sprintf "histogram %s has no buckets" fam))
        | _ -> ());
        let rec walk prev = function
          | [] -> ()
          | (le, count) :: rest ->
            (match prev with
            | Some (ple, pcount) ->
              if le <= ple then
                raise
                  (Bad
                     (Printf.sprintf "histogram %s: le bounds not increasing"
                        fam));
              if count < pcount then
                raise
                  (Bad
                     (Printf.sprintf
                        "histogram %s: bucket counts not cumulative" fam))
            | None -> ());
            walk (Some (le, count)) rest
        in
        walk None buckets;
        let last_le, last_count = List.nth buckets (List.length buckets - 1) in
        if last_le <> Float.infinity then
          raise
            (Bad (Printf.sprintf "histogram %s: missing +Inf bucket" fam));
        match Hashtbl.find_opt counts key with
        | Some c when c <> last_count ->
          raise
            (Bad
               (Printf.sprintf "histogram %s: _count %g <> +Inf bucket %g" fam
                  c last_count))
        | _ -> ())
      hist;
    Ok !samples
  with Bad msg -> Error msg
