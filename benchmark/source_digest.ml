(* A digest of the implementation files the server and library are built
   from. Interfaces are left out: they do not change what the binaries do,
   and dune adds a generated empty .mli beside executables in the build
   tree, which the source tree lacks. *)

let roots = [ "lib"; "bin" ]

let rec walk acc dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.fold_left
       (fun acc name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '.' || name.[0] = '_' then acc else walk acc path
         else if Filename.check_suffix name ".ml" then path :: acc
         else acc)
       acc

let compute root =
  let files =
    List.concat_map
      (fun r ->
        let dir = Filename.concat root r in
        if Sys.file_exists dir && Sys.is_directory dir then walk [] dir
        else [])
      roots
    |> List.sort compare
  in
  if files = [] then None
  else
    let prefix = String.length root + 1 in
    let b = Buffer.create 8192 in
    List.iter
      (fun f ->
        Buffer.add_string b (String.sub f prefix (String.length f - prefix));
        Buffer.add_char b '\000';
        Buffer.add_string b (Digest.file f))
      files;
    Some (Digest.to_hex (Digest.string (Buffer.contents b)))
