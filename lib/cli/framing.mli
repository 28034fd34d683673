(** One exchange session's byte framing, with no socket and no clock.

    A session's frames are length-prefixed: a 4-byte big-endian count,
    then the payload. An empty frame is legal; the sync exchange uses it
    as the turn-over sentinel. A {!t} holds one session's incremental
    reader — header, then payload, across however many reads it takes —
    and its queue of framed output, drained by however many partial
    writes the socket window allows. The host ({!Event_loop}) passes the
    read and write functions in, so the reader's and the queue's
    behaviour is a function of the bytes and the read/write results fed
    to them (checked by the [framing] purity boundary in
    [lint-boundaries.sexp]). *)

val header_bytes : int

val encode : string -> string
(** The payload with its 4-byte big-endian length prefix prepended. *)

type t

val create : unit -> t

(** {1 Reading} *)

type read =
  Bytes.t ->
  pos:int ->
  len:int ->
  ([ `Read of int | `Eof | `Would_block ], string) result
(** One non-blocking read into [buf.[pos .. pos + len - 1]]
    ({!Unix_compat.read_nb} over a conn). *)

val read_frame :
  t -> read:read -> ([ `Frame of string | `Eof | `Would_block ], string) result
(** Read until one frame completes and return its payload, or until
    [read] reports [`Would_block] or [`Eof] (the partial frame is kept
    for the next call); [Error] on a read error or a header announcing a
    negative length or one over {!Vegvisir.Wire.max_frame}. Payload
    buffers are added as payload bytes arrive, never sized by the
    announced length: a header announcing {!Vegvisir.Wire.max_frame}
    followed by a few bytes costs one 4 KiB chunk. *)

val mid_frame : t -> bool
(** Some header or payload bytes of an unfinished frame are held — at
    [`Eof], the peer hung up mid-frame. *)

(** {1 Writing} *)

type write =
  Bytes.t -> pos:int -> len:int -> ([ `Wrote of int | `Would_block ], string) result
(** One non-blocking write ({!Unix_compat.write_nb} over a conn). *)

val enqueue : t -> string -> unit
(** Frame the payload and queue it behind the output already queued. *)

val queued_bytes : t -> int
(** Framed bytes queued and not yet written. *)

val has_output : t -> bool

val discard_output : t -> unit
(** Drop everything queued (a failed session flushes nothing). *)

val flush : t -> write:write -> (unit, string) result
(** Write queued frames in order until the queue is empty or [write]
    reports [`Would_block]; [Error] on a write error. *)
