(** Pluggable event consumers.

    A sink is just a pair of callbacks; the bus fans every event out to
    each attached sink in attach order. Sinks do whatever I/O their host
    sanctions — the in-memory ring and the null sink do none, the JSONL
    sink writes through a caller-supplied function (an [out_channel]
    writer under the CLI, a [Buffer] under tests), keeping this library
    itself free of OS dependencies. *)

type t

val make : ?flush:(unit -> unit) -> (ts:float -> Event.t -> unit) -> t
val null : t
val emit : t -> ts:float -> Event.t -> unit
val flush : t -> unit

val jsonl : ?flush:(unit -> unit) -> (string -> unit) -> t
(** [jsonl write] serializes each event with {!Event.to_json} and calls
    [write] twice per event: the line, then ["\n"]. *)

(** A bounded in-memory buffer keeping the most recent events. *)
module Ring : sig
  type sink := t
  type t

  val create : capacity:int -> t
  (** @raise Invalid_argument unless [capacity > 0]. *)

  val record : t -> ts:float -> Event.t -> unit
  (** Two array-slot writes; allocates nothing. *)

  val sink : t -> sink
  val events : t -> (float * Event.t) list
  (** Oldest first; at most [capacity] entries. *)

  val recorded : t -> int
  (** Total events ever seen (including overwritten ones). *)

  val dropped : t -> int
  (** How many old events the ring has overwritten. *)
end
