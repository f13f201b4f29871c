(** Dense, fixed-capacity bitsets over the integer universe [0, capacity).

    Used as the row representation of transitive-closure matrices and for the
    set arithmetic of the view correctors, where the universe (task identifiers
    of one workflow) is small, dense and known in advance. All operations that
    combine two sets require them to have the same capacity. *)

type t

val create : int -> t
(** [create capacity] is the empty set over universe [0, capacity).
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int
(** Size of the universe the set ranges over. *)

val copy : t -> t

val add : t -> int -> unit
(** [add s i] inserts [i]. @raise Invalid_argument if [i] is out of range. *)

val remove : t -> int -> unit

val mem : t -> int -> bool

val is_empty : t -> bool

val cardinal : t -> int

val clear : t -> unit
(** Remove every element. *)

val fill : t -> unit
(** Insert every element of the universe. *)

val union_into : into:t -> t -> unit
(** [union_into ~into s] adds every element of [s] to [into]. *)

val union_many_into : into:t -> t array -> unit
(** [union_many_into ~into sources] adds every element of every source to
    [into], equivalent to folding {!union_into} over [sources] but
    cache-blocked: the word range is processed in L1-sized blocks, each
    block ORed with all sources before moving on, so wide rows are not
    streamed through the cache once per source. The workhorse of the
    transitive-closure kernels. *)

val inter_into : into:t -> t -> unit
(** [inter_into ~into s] removes from [into] the elements not in [s]. *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into s] removes from [into] the elements of [s]. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff every element of [a] is in [b].
    Short-circuits on the first word of [a] with a bit outside [b]. *)

val disjoint : t -> t -> bool
(** Short-circuits on the first word where the two sets intersect. *)

val words_scanned : unit -> int
(** Cumulative number of words examined by {!subset} and {!disjoint} since
    program start — a test/debug observable for the short-circuiting
    behaviour (plain counter, unsynchronised across domains). *)

val iter : (int -> unit) -> t -> unit
(** Iterate over members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val for_all : (int -> bool) -> t -> bool
(** Stops iterating at the first member for which the predicate fails. *)

val exists : (int -> bool) -> t -> bool
(** Stops iterating at the first member for which the predicate holds. *)

val elements : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list capacity elts]. @raise Invalid_argument on out-of-range input. *)

val choose : t -> int option
(** Smallest member, if any. *)

(** {2 Packed words}

    Kernels that keep their own bit matrices (the member frames of
    [Wolves_core.Soundness]) use the layout of a set's words: element [i]
    is bit [i mod bits_per_word] of word [i / bits_per_word]. *)

val bits_per_word : int
(** 63: the bits of an OCaml int below the sign, all usable as members. *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a nonzero word. *)

val popcount : int -> int
(** Number of set bits of a word. *)

val gather_into : t -> int array -> into:int array -> off:int -> unit
(** [gather_into s positions ~into ~off] sets bit [k] of the packed word
    vector that starts at word [off] of [into] when [positions.(k)] is in
    [s], for every [k]; other bits are left alone. One word probe per
    position, no allocation. @raise Invalid_argument when a position is
    out of range or [into] is too short. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{0, 3, 7}]. *)
