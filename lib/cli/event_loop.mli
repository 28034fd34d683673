(** The poll-based event-loop host: one process multiplexing N
    concurrent {!Vegvisir_engine.Peer_engine} exchange sessions, the
    [/metrics] HTTP endpoint, and periodic anti-entropy dials over
    non-blocking sockets ({!Unix_compat.wait_ready}) and a deterministic
    {!Timer_wheel}.

    This is the single socket host of the CLI: the [daemon], [serve],
    [sync --live] and [serve --metrics] commands each drive a loop over
    their node store directly. The protocol brain stays the sans-IO
    engine; the loop only moves bytes, applies [Deliver] effects to the
    store's node, turns [Set_timer] effects into wheel deadlines, and
    journals [Trace] effects through {!Vegvisir_obs.Engine_events} — a
    daemon session and a one-shot [sync --live] run byte-for-byte the
    same exchange. *)

type t

(** {1 Configuration} *)

type config = {
  mode : Vegvisir.Reconcile.mode;  (** reconciliation mode for every session *)
  session_budget : int;
      (** stop accepting new peer conns while this many sessions are
          active — backpressure at the accept queue, not in memory *)
  stale_after_ms : float;  (** engine retransmit threshold *)
  session_timeout_ms : float;  (** engine per-session hard deadline *)
  slow_iteration_ms : float;
      (** self-profiling threshold: iterations whose busy time (the
          select wait excluded) exceeds this bump the
          [loop.slow_iterations] counter — and, rate-limited to one per
          5 s, write a flight dump *)
  trace_sample : float;
      (** head-sampling rate for cross-daemon span tracing, handed to
          every hosted engine
          ({!Vegvisir_engine.Peer_engine.Config.trace_sample}); [0.]
          (the default) sends no [Trace_context] frames and emits no
          session spans *)
  flight_capacity : int;
      (** flight-recorder ring size in events
          (default {!Vegvisir_obs.Flight.default_capacity}) *)
}
(** Fixed bounds, not configurable: a session stops reading requests
    while 8 MiB of output is queued for it, fails after 30 s with no
    bytes moved either way, and is force-closed 5 s after
    {!request_stop}. *)

val default_config : config
(** [Naive] mode, 128-session budget, 2 s stale / 20 s session timeouts,
    100 ms slow-iteration threshold, tracing off, 4096-event flight
    ring. *)

val create : store:Node_store.t -> ?config:config -> unit -> t
(** A loop hosting sessions over [store]: it journals into the store's
    [trace.jsonl], applies deliveries to its node and saves it. *)

val context : t -> Vegvisir_obs.Context.t
(** The loop's live observability context: every journaled session or
    block event is also emitted here, and the loop maintains
    [daemon.accepted] / [daemon.scrapes] / [daemon.sessions_completed] /
    [daemon.sessions_failed] / [daemon.dial_failures] counters, the
    [daemon.sessions_active] / [daemon.uptime_seconds] gauges, a
    constant [build.info] gauge whose node label is {!Version.string},
    and the [loop.*] self-profiling metrics (per-phase
    accept/read/engine-step/write/timer/sweep duration histograms and
    the [loop.slow_iterations] counter, threshold
    [config.slow_iteration_ms]). The default [/metrics] rendering is
    the Prometheus exposition of this registry merged with a live
    projection of the loop's streaming health fold
    ({!Vegvisir_obs.Monitor}, [health.*]) and per-peer scoreboard
    ({!Vegvisir_obs.Scoreboard}, [peer.*]). Both folds ride the same
    bus, so [/health] and [/metrics] reflect sessions mid-run, not on
    the next replay. Anti-entropy sessions are labelled ["host:port"],
    so configured peers' scoreboard rows are keyed by their dial
    address. *)

(** {1 Flight recorder and spans}

    Two more sinks ride the same bus: an always-on
    {!Vegvisir_obs.Flight} ring of the last [flight_capacity] events,
    and a {!Vegvisir_obs.Span.Collector} folding the event stream into
    distributed spans. Besides [/metrics] and [/health], the metrics
    listener answers [GET /debug/spans] (the span ring as JSON),
    [GET /debug/flight] (the flight dump as JSONL), and
    [GET /debug/registry] (the merged registry snapshot as JSON). The
    registry also carries runtime gauges refreshed about once a second:
    [gc.minor_collections] / [gc.major_collections] / [gc.heap_words]
    ({!Gc.quick_stat}), [fds.open] (via [/proc/self/fd], absent
    elsewhere), and [loop.timer_depth] (timer-wheel cardinality). *)

val flight_dump : t -> string
(** {!Vegvisir_obs.Flight.dump} of the loop's ring against the merged
    registry snapshot — the [GET /debug/flight] body. *)

val spans : t -> Vegvisir_obs.Span.t list
(** The span ring's retained spans, oldest first. *)

val request_flight_dump : t -> unit
(** Ask the loop to write a flight dump at its next iteration, to
    [<store dir>/flight.jsonl]. Sets a flag only —
    safe from a signal handler; the daemon routes [SIGQUIT] here via
    {!Unix_compat.install_quit_handler}. *)

(** {1 Wiring} *)

val listen_peers :
  ?host:string -> ?backlog:int -> t -> port:int -> unit -> (int, string) result
(** Install the peer listener (at most one); inbound conns become
    exchange sessions. Returns the bound port ([port] 0 = ephemeral). *)

val listen_metrics : ?host:string -> t -> port:int -> unit -> (int, string) result
(** Install the [/metrics] listener (at most one). Unbounded: every
    conn gets one HTTP/1.1 response ([GET /metrics] → 200 with the
    rendering, anything else 404/400) and is closed. Partial reads and
    writes are handled incrementally — a slow scraper never blocks the
    sessions. *)

val set_render : t -> (unit -> string) -> unit
(** Replace the [/metrics] body renderer (default: {!context}'s registry
    as Prometheus text). Called once per successful scrape. *)

val metrics_port : t -> int option

val connect_exchange :
  ?label:string ->
  ?timeout_s:float ->
  t ->
  host:string ->
  port:int ->
  unit ->
  (int, string) result
(** Dial (blocking, bounded by [timeout_s]) and hand the conn to the
    loop as an initiating exchange session: it pulls immediately, hands
    the turn over, then serves the remote's pull-back. Returns the
    session id. [label] is the peer's telemetry identity (default
    ["peer-<id>"], the label of every accepted conn). *)

val set_anti_entropy :
  ?dial_timeout_s:float -> t -> every_ms:float -> peers:(string * int) list -> unit
(** Every [every_ms], dial one configured peer and run a full exchange
    with it (skipped entirely while at the session budget or stopping).
    The peer is chosen by {!Vegvisir_obs.Scoreboard.priority} over the
    live scoreboard: most diverged first, then longest unseen,
    deterministic label tie-break — skipping peers that are already
    mid-exchange with us or inside their dial-failure backoff window.
    Consecutive connect failures back a peer off exponentially (2, 4,
    … up to 64 periods), tracked per peer in the
    [daemon.dial_consecutive_failures] gauge and globally in the
    [daemon.dial_failures] counter; one successful dial resets it. *)

val dials : t -> string list
(** The labels of the most recent anti-entropy dial attempts (successful
    or not), oldest first, capped at the last 64 — also reported in the
    [/health] body's ["dials"] array so tests and operators can audit
    the scheduler's priority order. *)

val health_body : t -> string
(** The [GET /health] JSON body: node identity, build, uptime, daemon
    counters (including {!dials}), {!Vegvisir_obs.Health.to_json} of
    the health fold, {!Vegvisir_obs.Scoreboard.to_json} of the
    scoreboard, and the [loop.*] self-profiling metrics. *)

(** {1 Observation} *)

type stats = {
  accepted : int;  (** peer conns accepted *)
  dialed : int;  (** outbound exchanges attempted *)
  dial_failures : int;  (** anti-entropy connects that failed *)
  completed : int;  (** sessions finished cleanly *)
  failed : int;  (** sessions aborted, timed out, or errored *)
  active : int;  (** sessions currently open *)
  scrapes : int;  (** successful [/metrics] responses *)
  http_closed : int;  (** HTTP conns closed (any reason) *)
  delivered : int;
      (** blocks delivered to the node's intake across all sessions,
          including those it did not make resident *)
  served : int;  (** request frames answered across all sessions *)
}

val stats : t -> stats

type outcome = {
  pulled : Vegvisir.Reconcile.stats option;
      (** the pull session's transfer stats; [None] if it never
          completed *)
  delivered : int;
  served : int;
  error : string option;  (** [None] iff the exchange completed cleanly *)
}

val outcome : t -> int -> outcome option
(** The result of a finished session, by the id {!connect_exchange}
    returned; [None] while it is still running (or for unknown ids). *)

val outcomes : t -> (int * outcome) list
(** Every finished session's outcome, in session-id order. *)

(** {1 Running} *)

val run : ?until:(stats -> bool) -> t -> (unit, string) result
(** Drive the loop. Returns [Ok ()] when [until] first holds (checked
    between iterations; the loop stays intact, so a caller can run it
    again), when a requested stop has drained, or when there is nothing
    left to wait on; [Error] only on a fatal poll failure. *)

val request_stop : t -> unit
(** Begin graceful shutdown: sets a flag only, so it is safe from a
    signal handler ({!Unix_compat.install_stop_handler}). The loop then
    closes the peer listener, drains open sessions (force-closing them
    after 5 s), saves the store if an intake made blocks resident,
    flushes buffered telemetry, and returns from {!run}. *)

val shutdown : t -> unit
(** Immediate teardown for one-shot callers: fail any open sessions,
    close every conn and listener, save-if-dirty and flush telemetry. *)
