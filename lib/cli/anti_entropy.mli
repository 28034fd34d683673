(** The daemon's anti-entropy dial policy, with no socket and no clock.

    {!Event_loop} asks {!choose} which configured peer to dial each
    anti-entropy period and reports how the connect went
    ({!connected}/{!failed}); it does the dialing and sets the
    [daemon.dial_*] metrics itself. The host reads its monotonic clock
    and passes [now_ms] in, so the choices are a function of the calls
    made (checked by the [anti-entropy] purity boundary in
    [lint-boundaries.sexp]). *)

type t

type dial = { host : string; port : int; label : string  (** ["host:port"] *) }

val create : every_ms:float -> dial_timeout_s:float -> peers:(string * int) list -> t
(** Dial one of [peers] every [every_ms]; a connect not made within
    [dial_timeout_s] fails. *)

val every_ms : t -> float
val dial_timeout_s : t -> float

val labels : t -> string list
(** Every configured peer's label, in configuration order. *)

val choose :
  t ->
  now_ms:float ->
  priority:(string list -> string list) ->
  busy:(string -> bool) ->
  dial option
(** The first peer in [priority labels] order (the loop passes
    {!Vegvisir_obs.Scoreboard.priority}) that is neither [busy] (already
    mid-exchange with us) nor inside its backoff window at [now_ms], or
    [None]. A chosen peer is appended to the dial log. *)

val connected : t -> string -> unit
(** The dial to this label connected: its backoff resets. Unknown
    labels are ignored. *)

val failed : t -> now_ms:float -> string -> unit
(** The dial to this label failed: after n consecutive failures the peer
    is skipped for 2{^ min(n, 6)} periods from [now_ms] (2, 4, … 64).
    Unknown labels are ignored. *)

val failures : t -> string -> int option
(** Consecutive failed dials of a configured peer; [None] for a label
    that is not one. *)

val dials : t -> string list
(** The most recent chosen labels, oldest first, at most 64. *)
