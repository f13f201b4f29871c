(** CRC-32C (Castagnoli, polynomial 0x1EDC6F41), the checksum guarding every
    WAL record and segment header of {!Store}.

    Software slicing-by-8: eight 256-entry tables, built when the module is
    initialised, fold eight bytes per step, and the last [len mod 8] bytes
    go one at a time. Values match the usual hardware instruction
    ([crc32c("123456789") = 0xE3069283]). Results are in [0, 2^32), carried
    in an OCaml [int]. *)

val string : string -> int
(** Checksum of a whole string. *)

val substring : string -> pos:int -> len:int -> int
(** Checksum of [len] bytes starting at [pos].
    @raise Invalid_argument when the range is out of bounds. *)

val update : int -> string -> pos:int -> len:int -> int
(** Extend a running checksum: [update (string a) b ~pos:0
    ~len:(String.length b) = string (a ^ b)]. *)
