(** A small domain pool for the data-parallel kernels (OCaml 5 domains).

    The closure construction, the batched soundness validator and the
    corrector driver are embarrassingly parallel across rows / composites;
    this module gives them a shared, reusable pool of worker domains with
    chunked self-scheduling and {e deterministic, ordered} result
    collection, so parallel runs are byte-identical to sequential ones at
    every domain count.

    The default domain count is 1 (everything runs inline on the calling
    domain, exactly the pre-parallel behaviour); it is raised via the
    [WOLVES_DOMAINS] environment variable or {!set_default_domains} (the
    CLI's [--domains N] and the bench harness's [--domains N] both call
    it). Worker domains idle on a condition variable between jobs — no
    busy-waiting — and the pool is resized lazily when the requested count
    changes.

    The pool runs one job at a time, and a call that finds it taken runs
    inline: a job function that itself calls {!parallel_for} or
    {!map_ordered} executes that inner loop sequentially on its own
    domain, and so does a call from another domain (two server workers
    validating at once) while the pool is busy. Composing parallel layers
    or submitting from several domains therefore cannot deadlock the
    pool. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: the hardware parallelism
    available to this process. *)

val default_domains : unit -> int
(** The process-wide domain count used when [?domains] is omitted.
    Initialised from [WOLVES_DOMAINS] (default 1; invalid or < 1 values
    are ignored). *)

val set_default_domains : int -> unit
(** Set the process-wide default. @raise Invalid_argument when [n < 1]. *)

val parallel_for : ?domains:int -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f 0 .. f (n-1)], partitioned into chunks that
    [domains] domains (default {!default_domains}) claim from a shared
    atomic counter. The call returns only after every index has run, and
    the pool's join synchronises memory: writes made by [f] are visible to
    the caller afterwards. With [domains = 1], [n < 2], or while another
    call holds the pool (from inside a pool job, or concurrently from
    another domain), this is a plain sequential loop.

    [f] must only write to locations owned by its index (rows of a matrix,
    slots of an array): indexes run concurrently in unspecified order.
    [chunk] overrides the chunk size (default: [n] split ~8 ways per
    domain, at least 1). An exception raised by [f] is re-raised in the
    caller (when several indexes raise, the one with the smallest index
    wins, deterministically). *)

val map_ordered : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_ordered f xs] is [Array.map f xs] with the elements evaluated in
    parallel on the pool; [xs.(i)]'s result lands at slot [i] regardless
    of which domain ran it, so the output (and any ordered fold over it)
    is independent of scheduling. Exceptions propagate as in
    {!parallel_for}. *)

val shutdown : unit -> unit
(** Join and discard the pool's worker domains, if any (registered with
    [at_exit]; also safe to call directly, e.g. between benchmark
    sections). The next parallel call re-creates the pool on demand. *)
