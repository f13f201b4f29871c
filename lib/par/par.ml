let recommended_domains () = Domain.recommended_domain_count ()

let env_domains () =
  match Sys.getenv_opt "WOLVES_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)

let default = ref (env_domains ())

let default_domains () = !default

let set_default_domains n =
  if n < 1 then
    invalid_arg (Printf.sprintf "Par.set_default_domains: %d < 1" n);
  default := n

(* One in-flight job: workers and the caller claim [chunk]-sized index
   ranges from [next] until it passes [n]. The first exception (by smallest
   starting index) is kept so re-raising is deterministic. *)
type job = {
  next : int Atomic.t;
  n : int;
  chunk : int;
  f : int -> unit;
  fail : Mutex.t;
  mutable exn : (int * exn) option; (* chunk start, exception *)
}

type pool = {
  mutable workers : unit Domain.t array; (* [domains - 1] of them *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int; (* bumped when a job is published *)
  mutable active : int; (* workers still running the current job *)
  mutable stop : bool;
}

let record_exn job start e =
  Mutex.lock job.fail;
  (match job.exn with
   | Some (s, _) when s <= start -> ()
   | _ -> job.exn <- Some (start, e));
  Mutex.unlock job.fail

let run_chunks job =
  let continue = ref true in
  while !continue do
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start >= job.n then continue := false
    else
      let stop = min job.n (start + job.chunk) in
      try
        for i = start to stop - 1 do
          job.f i
        done
      with e ->
        record_exn job start e;
        (* Drain the counter so co-workers stop picking up chunks whose
           results will be discarded anyway. *)
        Atomic.set job.next job.n
  done

let worker pool =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.lock;
    while pool.generation = !seen && not pool.stop do
      Condition.wait pool.work_ready pool.lock
    done;
    if pool.stop then begin
      Mutex.unlock pool.lock;
      running := false
    end
    else begin
      seen := pool.generation;
      let job = Option.get pool.job in
      Mutex.unlock pool.lock;
      run_chunks job;
      Mutex.lock pool.lock;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.lock
    end
  done

let create_pool domains =
  let pool =
    { workers = [||];
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      active = 0;
      stop = false }
  in
  (* The workers must capture [pool] itself (they poll its mutable job
     fields), so the array is filled in after the record exists; it is only
     read by the submitting domain, never by the workers. *)
  pool.workers <-
    Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

(* The global pool and its single job slot belong to whichever submitter
   holds [busy], claimed by compare-and-set. A submitter that loses the
   claim runs its loop inline: a nested call (a job function invoking
   parallel_for, which sees the claim its own submitter holds) as well as a
   concurrent one from another domain (two server workers validating at
   once). Only the holder calls [obtain] or touches the job slot. *)
let global : pool option ref = ref None

let busy = Atomic.make false

let shutdown () =
  match !global with
  | None -> ()
  | Some pool ->
    global := None;
    Mutex.lock pool.lock;
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers

let () = at_exit shutdown

let obtain domains =
  match !global with
  | Some pool when Array.length pool.workers = domains - 1 -> pool
  | _ ->
    shutdown ();
    let pool = create_pool domains in
    global := Some pool;
    pool

let sequential_for n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for ?domains ?chunk n f =
  let domains =
    match domains with Some d when d >= 1 -> d | Some _ | None -> !default
  in
  if domains <= 1 || n < 2 || not (Atomic.compare_and_set busy false true)
  then sequential_for n f
  else begin
    let pool =
      try obtain domains
      with e ->
        Atomic.set busy false;
        raise e
    in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | _ -> max 1 (n / (domains * 8))
    in
    let job =
      { next = Atomic.make 0;
        n;
        chunk;
        f;
        fail = Mutex.create ();
        exn = None }
    in
    Mutex.lock pool.lock;
    pool.job <- Some job;
    pool.active <- Array.length pool.workers;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    run_chunks job;
    Mutex.lock pool.lock;
    while pool.active > 0 do
      Condition.wait pool.work_done pool.lock
    done;
    pool.job <- None;
    Mutex.unlock pool.lock;
    Atomic.set busy false;
    match job.exn with
    | Some (_, e) -> raise e
    | None -> ()
  end

let map_ordered ?domains f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?domains n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end
