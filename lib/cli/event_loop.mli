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
    same exchange. Three decisions live in modules with no socket and no
    clock, each tested alone: frame reassembly and the output queue
    ({!Framing}), the HTTP subset ({!Http}) and the anti-entropy dial
    policy ({!Anti_entropy}). *)

type t

(** {1 Configuration} *)

type config = {
  mode : Vegvisir.Reconcile.mode;  (** reconciliation mode for every session *)
  stale_after_ms : float;  (** engine retransmit threshold *)
  session_timeout_ms : float;  (** engine per-session hard deadline *)
  trace_sample : float;
      (** head-sampling rate for cross-daemon span tracing, handed to
          every hosted engine
          ({!Vegvisir_engine.Peer_engine.Config.trace_sample}); [0.]
          (the default) sends no [Trace_context] frames and emits no
          session spans *)
}
(** Fixed bounds, not configurable: the loop stops accepting peer conns
    while 128 sessions are active (backpressure at the kernel's accept
    queue, not in memory); a session stops reading requests while 8 MiB
    of output is queued for it, fails after 30 s with no bytes moved
    either way, and is force-closed 5 s after {!request_stop}; an
    iteration busier than 100 ms (the select wait excluded) bumps
    [loop.slow_iterations] and, at most once per 5 s, writes a flight
    dump; the flight ring keeps the last
    {!Vegvisir_obs.Flight.default_capacity} events. *)

val default_config : config
(** [Naive] mode, 2 s stale / 20 s session timeouts, tracing off. *)

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
    the [loop.slow_iterations] counter). The default [/metrics] rendering is
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
    {!Vegvisir_obs.Flight} ring of the most recent events,
    and a {!Vegvisir_obs.Span.Collector} folding the event stream into
    distributed spans. Besides [/metrics] and [/health], the metrics
    listener answers [GET /debug/spans] (the span ring as JSON),
    [GET /debug/flight] (the flight dump as JSONL), and
    [GET /debug/registry] (the merged registry snapshot as JSON). The
    registry also carries runtime gauges refreshed about once a second:
    [gc.minor_collections] / [gc.major_collections] / [gc.heap_words]
    ({!Gc.quick_stat}), [fds.open] (via [/proc/self/fd], absent
    elsewhere), and [loop.timer_depth] (timer-wheel cardinality). *)

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

val connect_exchange :
  ?label:string ->
  ?timeout_s:float ->
  t ->
  host:string ->
  port:int ->
  unit ->
  (int, string) result
(** Start a non-blocking dial and return its session id at once: the
    session waits for the connect among the loop's other descriptors,
    then pulls, hands the turn over, and serves the remote's pull-back.
    A connect refused or not made within [timeout_s] (no deadline but
    the kernel's without it) finishes the session with the
    ["connect: ..."] error as its {!outcome} and counts a dial failure,
    not a failed session. [Error] only when the connect fails before it
    can start (an unknown host, or a refusal the kernel reports at
    once). Name resolution of a non-literal host blocks. [label] is the
    peer's telemetry identity (default ["peer-<id>"], the label of every
    accepted conn). *)

val set_anti_entropy :
  ?dial_timeout_s:float -> t -> every_ms:float -> peers:(string * int) list -> unit
(** Every [every_ms], dial one configured peer with {!connect_exchange}
    (deadline [dial_timeout_s], default 5 s) and run a full exchange
    with it (skipped entirely while at the session budget or stopping).
    {!Anti_entropy} chooses the peer by
    {!Vegvisir_obs.Scoreboard.priority} over the live scoreboard — most
    diverged first, then longest unseen, deterministic label tie-break —
    skipping peers that are already mid-exchange with us (a dial still
    connecting included) or inside their dial-failure backoff window.
    Consecutive connect failures back a peer off exponentially (2, 4,
    … up to 64 periods), tracked per peer in the
    [daemon.dial_consecutive_failures] gauge and globally in the
    [daemon.dial_failures] counter; one successful dial resets it.

    The [GET /health] body carries node identity, build, uptime, the
    daemon counters with the last 64 dialed labels (oldest first, in
    its ["dials"] array, so tests and operators can audit the
    scheduler's priority order), {!Vegvisir_obs.Health.to_json} of the
    health fold, {!Vegvisir_obs.Scoreboard.to_json} of the scoreboard,
    and the [loop.*] self-profiling metrics. *)

(** {1 Observation} *)

type stats = {
  accepted : int;  (** peer conns accepted *)
  dialed : int;  (** outbound connects that succeeded *)
  dial_failures : int;  (** outbound connects that failed *)
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
