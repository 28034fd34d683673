(** The opportunistic gossip agent (§IV-G) running Vegvisir nodes over the
    {!Simnet} simulator.

    This module is a {e thin transport adapter}: the whole protocol —
    session lifecycle, retry/timeout policy, and the §IV-B adversary
    behaviours — lives in the sans-IO
    {!Vegvisir_engine.Peer_engine} state machine. The adapter feeds the
    engine typed inputs (delivered frames, timer expiries, gossip ticks)
    stamped with the simulated clock, and replays the engine's typed
    effects onto the simulator: [Send] becomes {!Simnet.send}, [Set_timer]
    becomes {!Simnet.set_timer} (via the typed-to-tag codec), [Deliver]
    feeds the peer's {!Vegvisir.Node}, and [Session_done]/[Trace] feed the
    statistics counters. Effect replay preserves the pre-refactor call
    order, so a seeded run is byte- and schedule-identical to the old
    welded-in agent.

    Each peer periodically picks a random physical neighbor and initiates a
    {!Vegvisir.Reconcile} pull session; replies stream back through the
    simulated radio and accepted blocks are validated and applied by the
    peer's {!Vegvisir.Node}. Adversarial behaviours implement the §IV-B
    model: a [Silent] peer neither initiates nor answers; a [Withholding]
    peer answers but serves only blocks it created itself (refusing to
    propagate others'); both can still be gossiped {e around}. *)

type behavior = Vegvisir_engine.Peer_engine.policy =
  | Honest
  | Silent
  | Withholding

type t

type tap =
  peer:int ->
  now:float ->
  dag:Vegvisir.Dag.t ->
  Vegvisir_engine.Peer_engine.input ->
  Vegvisir_engine.Peer_engine.effect_ list ->
  unit
(** Observation hook: called after every engine transition with the exact
    (clock, DAG, input, effects) tuple. Because the engine is pure, a
    recorded input sequence replayed into a fresh engine must reproduce
    the recorded effects — the property the test suite asserts. *)

val create :
  net:Simnet.t ->
  nodes:Vegvisir.Node.t array ->
  ?behaviors:behavior array ->
  mode:Vegvisir.Reconcile.mode ->
  interval_ms:float ->
  ?stale_after_ms:float ->
  ?session_timeout_ms:float ->
  ?trace_sample:float ->
  ?tap:tap ->
  obs:Vegvisir_obs.Context.t ->
  unit ->
  t
(** One gossip peer per node; array sizes must match the topology.

    [trace_sample] sets every engine's cross-node span-tracing rate
    (default [0.]: no [Trace_context] frames, no session spans). Sampled
    sessions emit [session.announce] / [session.serve] /
    [session.exchange] {!Vegvisir_obs.Event.Span} events into the fleet's
    context, stitched by a shared trace id — the spans a daemon journals,
    through the same {!Vegvisir_obs.Engine_events.of_event}.

    [obs] receives block-lifecycle and session telemetry ({!Scenario.build}
    passes the radio's context, so one registry covers the fleet); the
    counter accessors below read from it. *)

val start : t -> unit
(** Install handlers and schedule the first (staggered) gossip rounds. *)

val node : t -> int -> Vegvisir.Node.t
val behavior : t -> int -> behavior
val size : t -> int

val append :
  t ->
  int ->
  ?location:Vegvisir.Location.t ->
  Vegvisir.Transaction.t list ->
  (Vegvisir.Block.t, Vegvisir.Node.append_error) result
(** Create a block at peer [i] at the current simulated time, charging
    signing energy. Its [Created] event, stamped with that time, is its
    birth for propagation metrics. *)

val witness : t -> int -> (Vegvisir.Block.t, Vegvisir.Node.append_error) result

val receive : t -> int -> Vegvisir.Block.t -> unit
(** Inject a block from outside the gossip exchange (e.g. initial seeding
    of the genesis). *)

val coverage : t -> Vegvisir.Hash_id.t -> int
(** How many peers currently hold the block. *)

val honest_converged : t -> bool
(** All [Honest] peers hold identical DAGs (by frontier) and CSM state. *)

val reconcile_stats : t -> Vegvisir.Reconcile.stats
(** Aggregated over all completed sessions. *)

val obs : t -> Vegvisir_obs.Context.t
(** The agent's observability context: registry counters ([session.*],
    [block.*], …) and the causal block trace. *)

val sessions_completed : t -> int
val sessions_aborted : t -> int
(** Registry reads ([session.completed] and [session.aborted] summed
    across nodes), kept as functions so existing callers read one
    place. *)
