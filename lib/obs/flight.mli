(** The always-on flight recorder.

    A bounded ring of the most recent events that a daemon keeps even
    when journaling is off, so there is always a recent-history record
    to dump when something goes wrong (SIGQUIT, a slow event-loop
    iteration, or [GET /debug/flight]). Recording writes one ring slot
    (the event and its stamp) and allocates nothing; all serialization
    cost is deferred to {!dump}. *)

type t

val default_capacity : int
(** 4096 events. *)

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument unless [capacity > 0]. *)

val sink : t -> Sink.t
(** Attach this to the bus to record every event. *)

val record : t -> ts:float -> Event.t -> unit

val recorded : t -> int
(** Total events ever seen (including overwritten ones). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val events : t -> (float * Event.t) list
(** Retained events, oldest first. *)

val capacity : t -> int

val dump : t -> snapshot:Registry.snapshot -> string
(** The flight dump, as JSONL: a
    [{"flight":{"capacity":…,"recorded":…,"dropped":…}}] header line,
    one {!Event.to_json} line per retained event (oldest first) — so
    journal tooling reads the body unchanged — and a final
    [{"registry":…}] line carrying the given registry snapshot on one
    line. *)
