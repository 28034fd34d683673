(** The sans-IO gossip/reconciliation peer engine (§IV-G, Algorithm 1).

    One [Peer_engine.t] is the complete protocol brain of one gossiping
    peer: session lifecycle (initiate, escalate, retransmit, abandon),
    retry and timeout policy, and the §IV-B adversary behaviours. It
    performs {e no} I/O and reads {e no} clock: every stimulus arrives as
    a typed {!input} with an explicit [now], and every consequence leaves
    as a typed {!effect_} that the hosting driver replays onto its
    transport. The same engine therefore runs over the discrete-event
    simulator ({!Vegvisir_net.Gossip}), over real sockets
    ({!Vegvisir_cli.Event_loop}), and directly under unit tests — byte for
    byte the same protocol. Both hosts turn [Trace] effects into
    telemetry through one shared mapping,
    {!Vegvisir_obs.Engine_events.of_event}.

    [handle] is a pure transition function: given the same state, clock,
    DAG, and input it returns the same successor state and the same
    effect list. The engine holds no hash tables and iterates nothing of
    unspecified order, so its outputs are reproducible across replicas
    and replays (see DESIGN.md §7). *)

open Vegvisir

(** {1 Policies (§IV-B)} *)

(** How this peer participates. [Honest] follows the protocol. [Silent]
    neither initiates sessions nor answers requests (a crashed or jamming
    node). [Withholding] initiates and answers, but serves only blocks it
    created itself (plus the genesis): it refuses to propagate others'
    blocks, answering from a censored view of its replica. *)
type policy = Honest | Silent | Withholding

(** {1 Configuration}

    What used to be five optional positional arguments on [create] —
    adding a knob no longer ripples through every host. *)
module Config : sig
  type t = {
    policy : policy;
    mode : Reconcile.mode;
    stale_after_ms : float;
        (** a session with no progress for this long retransmits its
            current request (then abandons once the budget is spent) *)
    session_timeout_ms : float;  (** per-session hard deadline *)
    trace_sample : float;
        (** head-sampling rate for cross-daemon span tracing: the
            fraction of initiated sessions that announce a
            {!Reconcile.message.Trace_context} frame to the responder
            (so its serve-side spans stitch into the initiator's
            trace). [0.] — the default — sends nothing, keeping the
            wire byte-identical to the pre-tracing protocol; [1.]
            announces every session. The sampling decision is a
            deterministic hash of (initiator, generation)
            ({!Reconcile.trace_sampled}), never a random draw. *)
  }

  val default : t
  (** [Honest], [Naive] mode, 5 s stale, 30 s timeout, trace sampling
      off. *)
end

(** {1 Timers} *)

(** Typed timer identity — what used to be stringly "gossip" /
    "timeout:<generation>" tags with a partial [int_of_string] parse on
    the way back in. *)
type timer_key =
  | Gossip_round  (** the periodic gossip cadence (host-scheduled) *)
  | Session_timeout of { generation : int }
      (** hard deadline for the session of that generation; stale
          generations are ignored when they fire *)

val tag_of_timer : timer_key -> string
(** Stable string form ["gossip"] / ["timeout:<generation>"] for
    transports whose timers carry string tags (e.g. {!Simnet}). *)

val timer_of_tag : string -> timer_key option
(** Total inverse of {!tag_of_timer}; [None] for foreign tags. *)

(** {1 Inputs} *)

type input =
  | Message_received of { from : int; bytes : string }
      (** a raw frame arrived from peer [from] *)
  | Timer_fired of timer_key
      (** a previously requested timer expired. [Gossip_round] here runs
          retransmit/abandon housekeeping only (equivalent to
          [Tick {peer = None}]) *)
  | Block_created of Block.t
      (** a block entered the local replica outside a pull session (local
          append, external seeding) — keeps the withholding serving view
          current *)
  | Tick of { peer : int option }
      (** one gossip round: housekeep the current session, then — if idle
          afterwards — initiate a pull from [peer] (chosen by the host's
          neighbor-selection policy; [None] when unreachable, asleep, or
          the host consulted {!will_initiate} and it said no) *)

(** {1 Effects} *)

type abort_reason =
  | Stalled  (** no progress despite retransmissions (Tick housekeeping) *)
  | Timed_out  (** the session's hard [Session_timeout] fired *)

(** Structured protocol trace — observability for free on every driver.
    Traces are informational except [Session_aborted], which is also how
    drivers count abandoned sessions. *)
type event =
  | Session_started of { dst : int; generation : int }
  | Request_resent of { dst : int; generation : int; attempt : int }
  | Session_completed of {
      dst : int;
      generation : int;
      blocks : int;
      duration_ms : float;
    }
      (** [duration_ms] is the elapsed engine-clock time since this
          session's [Session_started] — the per-peer exchange-latency
          attribution the health scoreboard feeds on *)
  | Session_aborted of { dst : int; generation : int; reason : abort_reason }
  | Request_suppressed of { src : int }
      (** a [Silent] peer swallowed a request it could have answered *)
  | Reply_ignored of { from : int }
      (** a reply with no matching session (stale, duplicated, or
          reordered past its session's end) *)
  | Decode_failed of { from : int }
  | Blocks_served of { dst : int; blocks : Hash_id.t list }
      (** a reply just sent to [dst] shipped these block payloads — the
          ground truth for the "sent" phase of a block's causal trace *)
  | Redundant_received of { from : int; blocks : Hash_id.t list }
      (** an accepted reply carried blocks the local DAG already held —
          wasted transfer work; the hash-level counterpart of
          [Reconcile.stats.redundant_blocks] and the waste term of the
          health monitor's gossip-efficiency metric *)
  | Peer_advertised of { from : int; hashes : Hash_id.t list }
      (** a reply from [from] advertised these hashes without shipping
          the blocks (digest leaves): [from] provably holds them. Hosts
          journal it as one [Blocks_advertised] event *)
  | Trace_context_sent of {
      dst : int;
      generation : int;
      trace : string;
      span : string;
    }
      (** this engine initiated a sampled session and announced its
          trace identity to [dst] ahead of the first request — hosts
          use it to open their exchange span under the same ids *)
  | Trace_context_received of { from : int; trace : string; span : string }
      (** [from] announced a trace for the session it is about to run
          against us; hosts parent their serve-side spans under
          [(trace, span)] so the exchange stitches into one
          cross-process tree. Carries no protocol state — engines
          predating tag 11 never see it (the frame dies at
          {!Vegvisir.Wire.decode_string} with a [Decode_failed]
          trace) *)

type effect_ =
  | Send of { dst : int; bytes : string }  (** transmit one frame *)
  | Set_timer of { key : timer_key; after_ms : float }
  | Deliver of Block.t list
      (** hand the session's new blocks to the local node (validated and
          applied by the host; parents-before-children order) *)
  | Session_done of Reconcile.stats  (** a pull session completed *)
  | Trace of event

(** {1 The machine} *)

type t

val create :
  ?config:Config.t -> ?generation:int -> user_id:Hash_id.t -> dag:Dag.t -> unit -> t
(** A fresh idle engine (config defaults to {!Config.default}). Its
    first session is [generation + 1] (default [0], so [1]); a host that
    runs many engines for one identity starts each past the last one's
    sessions, so no two sessions share a generation, and with it a
    sampling decision and a trace id ({!Reconcile.session_trace_ids}).
    [dag] is the replica's state {e now} — used only to seed the withholding
    censored view; later transitions read the replica through
    {!handle}'s [dag] argument. A session with no progress for
    [stale_after_ms] retransmits its current request until a budget of
    three retransmits is spent, then is abandoned. The budget is
    {e peer}-level: starting a new session does not refill it
    — only actually hearing a reply does — so a peer in a lossy or
    sleepy neighbourhood quickly abandons stale sessions and re-pairs
    with fresh neighbors rather than burning retransmissions. *)

val handle : t -> now:float -> dag:Dag.t -> input -> t * effect_ list
(** The transition function. [now] is the driver's clock in milliseconds
    (simulated or wall); [dag] is the local replica's current DAG. Pure:
    no I/O, no clock reads, no hidden state. *)

val will_initiate : t -> now:float -> bool
(** Whether a [Tick] at [now] would leave the engine wanting a peer to
    pull from (idle — or about to abandon a hopeless session — and not
    [Silent]). Drivers whose neighbor choice consumes randomness MUST
    consult this before drawing, so that engines that cannot use a peer
    do not perturb the entropy stream (deterministic replay). *)

val busy : t -> bool
(** A session is currently in flight. *)

val next_wakeup : t -> float option
(** Host keepalive hook: the absolute engine-clock time (ms) at which
    the in-flight session next wants a [Tick {peer = None}] so its
    retransmit/abandon housekeeping runs on schedule —
    [last_activity + stale_after_ms]. [None] when idle. Event-driven
    hosts (the {!Vegvisir_cli} event loop) arm a timer here instead of
    polling; re-read after every {!handle}, since any reply moves it. *)

val policy : t -> policy
val config : t -> Config.t
val generation : t -> int
(** The starting generation plus the number of sessions ever initiated;
    the current session's identity. *)

(** {1 Equality and printing (test/driver support)} *)

val abort_reason_equal : abort_reason -> abort_reason -> bool
val event_equal : event -> event -> bool
val effect_equal : effect_ -> effect_ -> bool
val pp_event : event Fmt.t
val pp_effect : effect_ Fmt.t
