(** The one translation from {!Vegvisir_engine.Peer_engine.event} traces
    to telemetry events, shared by both engine hosts: the simulator's
    gossip agent and the daemon's event loop. Host-specific work (which
    trace context a session joins, failing a session on abort, logging)
    stays at each host's call site.

    Also the one mapping from block intake to block events, for both
    hosts and for [Node_store]'s sync, recovery and local creations: a
    delivery journals {!received} before {!Vegvisir.Node.intake} and
    {!made_resident} of what the intake returned after it, so every
    block made resident is journaled exactly once, and the time between
    the two is the intake's cost.

    Pure (the [engine-events] lint boundary): no clock, no randomness,
    no IO, no global mutable state. *)

val received :
  node:Event.node -> ?peer:Event.node -> Vegvisir.Block.t list -> Event.t list
(** One [Block {phase = Received}] per delivered block, in delivery
    order, naming the delivering [peer] — duplicates and blocks the
    intake will refuse included. *)

val made_resident :
  node:Event.node -> ?peer:Event.node -> Vegvisir.Block.t list -> Event.t list
(** For each block an intake made resident, in commit order:
    [Validated] and [Delivered], both naming [peer], then, for an empty
    block, one [Witnessed] per parent whose peer is the block creator's
    {!Vegvisir.Hash_id.short} id. *)

val created : node:Event.node -> Vegvisir.Block.t -> Event.t list
(** A local creation: [Created], then, for an empty block, one
    [Witnessed] per parent as in {!made_resident}. *)

val of_event :
  node:Event.node ->
  peer:(int -> Event.node) ->
  ?exchange:string * string ->
  Vegvisir_engine.Peer_engine.event ->
  Event.t list
(** The events a host emits for one engine trace, in emission order;
    [node] names the host replica and [peer] an engine peer index.
    Session traces map to their [Event] twins; [Blocks_served] and
    [Redundant_received] give one [Block {phase = Sent}] /
    [Block_redundant] per hash, [Peer_advertised] one
    [Blocks_advertised] with the hash count. [Trace_context_sent] gives
    the instant [session.announce] root span, [Trace_context_received]
    the instant [session.serve] span under the announced one, and
    [Session_completed] with [~exchange:(trace, root)] is followed by
    the timed [session.exchange] span under [root].
    [Request_suppressed], [Reply_ignored] and [Decode_failed] give
    nothing. *)
