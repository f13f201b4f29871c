(* Emits build_info.ml: the digest of the sources this build compiled. *)

let () =
  match Wolves_benchmark.Source_digest.compute Sys.argv.(1) with
  | Some d -> Printf.printf "let sources_digest = %S\n" d
  | None -> failwith "gen_digest: no lib/ or bin/ sources found"
