(** The request handlers behind {!Server}, as a plain library: a corpus of
    named workflow views with every index its handlers read pinned, and a total
    [request -> reply] function.

    Keeping this separate from the connection machinery is what makes the
    chaos property testable — "the reply the server sent" and "the direct
    library call" are the {e same} function, {!handle}, so byte-identity
    under injected faults is a meaningful assertion rather than a parallel
    reimplementation. *)

open Wolves_workflow

type t

val load : (string * View.t) list -> t
(** Build a corpus. Forces every lazily-built index a request handler
    reads — the spec's dense closure (descendant and ancestor rows) — so
    concurrent request handlers only ever read shared state. Pinning is
    farmed over the {!Wolves_par.Par} pool. The view-graph closure
    ({!Wolves_workflow.View.view_reach}) is not pinned: handlers must not
    read it, since a first read from two domains at once would build it
    twice and race on its cache.
    @raise Invalid_argument on duplicate or empty ids. *)

val of_files : string list -> (t, string) result
(** Load [.wf] documents (via {!Wolves_lang.Wfdsl}) or MoML files; each
    corpus id is the file's basename without extension. *)

val of_store : string -> (t, string) result
(** Load every workflow of a {!Wolves_storage.Store} directory (via
    {!Wolves_repository.Repository.load_store}); corpus ids are the
    repository ids. *)

val of_repository : Wolves_repository.Repository.t -> t

val ids : t -> string list
(** Sorted. *)

val size : t -> int
val find : t -> string -> View.t option

val handle :
  ?domains:int ->
  ?spent_s:float ->
  ?default_deadline_ms:float ->
  t ->
  Protocol.request ->
  Protocol.reply
(** Answer one request. Total: never raises — library exceptions come back
    as [Err ("internal", _)], invalid arguments as [Err ("bad-request", _)].
    Deterministic for a fixed corpus and request, which is what the chaos
    tests assert byte-for-byte.

    [spent_s] (default 0) is time already charged against the request's
    deadline — the server passes its admission-queue wait, so queued
    [CORRECT ... DEADLINE] requests degrade tiers instead of overstaying.
    [default_deadline_ms] bounds bare [CORRECT <id>] requests; without it
    they run the strong criterion unbounded. [domains] defaults to [1]:
    request handlers run one per worker domain, so inner parallelism must
    stay off ({!Wolves_par.Par}'s pool is owned by whole-process phases,
    not concurrent independent callers).

    [Stats] and [Health] are answered by {!Server}, which owns the
    counters; here they return a [bad-request] error. *)
