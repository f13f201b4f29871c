(* Child processes: spawned without WOLVES_DOMAINS, and killed on any exit
   path so no child outlives the benchmark.

   Peak memory comes from VmHWM in /proc/PID/status, which covers only
   the running program. The rusage of a reaped child would not do: Linux
   folds into it the memory the child had before exec, which for a child
   spawned from this process is this process's own. *)

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 15 && String.sub kv 0 15 = "WOLVES_DOMAINS="))
  |> Array.of_list

let spawn ?(stdout = Unix.stdout) prog args =
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      (env ()) Unix.stdin stdout Unix.stderr
  in
  Hashtbl.replace live pid ();
  pid

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> -s

(* Blocks until the child exits; its exit code, or minus the signal that
   killed it. *)
let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status ->
      Hashtbl.remove live pid;
      exit_code status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* The peak resident set of a running process, in KiB. *)
let peak_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  | exception Sys_error _ -> None

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error _ -> ())
    (Hashtbl.copy live);
  Hashtbl.reset live

(* Children die with the benchmark, also when it is interrupted. *)
let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let quietly f =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) (fun () -> f null)

(* Runs to completion with stdout discarded; (exit code, wall seconds). *)
let run_quiet prog args =
  let t0 = Wolves_obs.Clock.now () in
  let pid = quietly (fun null -> spawn ~stdout:null prog args) in
  let code = reap pid in
  (code, Wolves_obs.Clock.elapsed_since t0)

(* Runs to completion with stdout discarded, polling its peak memory every
   millisecond: (exit code, last peak read in KiB). Not for timing. *)
let run_polled prog args =
  let pid = quietly (fun null -> spawn ~stdout:null prog args) in
  let rec poll peak =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        let peak = Option.fold ~none:peak ~some:(max peak) (peak_kb pid) in
        Unix.sleepf 0.001;
        poll peak
    | _, status ->
        Hashtbl.remove live pid;
        (exit_code status, peak)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll peak
  in
  poll 0
