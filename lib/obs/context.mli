(** One observability context per run: bus and registry wired together.

    {!create} attaches one internal sink to the bus, a stats deriver that
    maintains the standard per-node counters ([block.*],
    [gossip.*], [net.*], [session.*], [cluster.*],
    [store.*], [sync.*]) from the event stream. Layers that hold a
    context only ever {!emit}; counting happens here, identically for
    simulated and real nodes. The context retains no events, so its
    memory stays flat however long it runs; a caller that wants block
    timelines attaches its own sink (a {!Sink.Ring}, or a list collector
    folded through {!Span.of_events}). *)

type t

val create : unit -> t
val bus : t -> Bus.t
val registry : t -> Registry.t
val emit : t -> ts:float -> Event.t -> unit
val attach : t -> Sink.t -> unit

val detach : t -> Sink.t -> unit
(** Remove a sink previously passed to {!attach} (physical equality) —
    lets a caller scope a listener (e.g. a health monitor) to one
    experiment row on a shared context. *)

val flush : t -> unit
