(** Deterministic binary serialization primitives.

    All multi-byte integers are big-endian; strings are u32
    length-prefixed. Encodings are canonical: a value has exactly one
    encoding, so hashing an encoding identifies the value. Decoders raise
    {!Malformed} on any violation (callers at trust boundaries convert to
    [option]/[result]). *)

exception Malformed of string

val max_frame : int
(** The largest frame payload peers exchange, 64 MiB. The socket framer
    refuses longer length prefixes, and a responder stops adding blocks
    before its encoded reply would pass it. *)

type cursor = { data : string; mutable pos : int }

val cursor : string -> cursor
val at_end : cursor -> bool
val expect_end : cursor -> unit
(** @raise Malformed if input remains. *)

(** {1 Encoding (append to a [Buffer.t])} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int64 -> unit
val put_str : Buffer.t -> string -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val put_opt : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {1 Decoding} *)

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_i64 : cursor -> int64
val get_str : cursor -> string

val skip : cursor -> int -> unit
(** [skip c n] moves past [n] bytes without copying them.
    @raise Malformed if fewer remain. *)

val get_list : cursor -> (cursor -> 'a) -> 'a list
val get_opt : cursor -> (cursor -> 'a) -> 'a option

val decode_string : (cursor -> 'a) -> string -> 'a option
(** Run a decoder over a whole string; [None] on leftovers or errors. *)
