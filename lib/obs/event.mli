(** The telemetry event taxonomy — one typed variant per subsystem — and
    its JSONL codec.

    Every event is stamped with an explicit timestamp [ts] in
    milliseconds by its emitter (simulated time under {!Vegvisir_net},
    the sanctioned host clock under the CLI); this module never reads a
    clock. Node identities are strings: simulator peers use their
    decimal index (["0"], ["1"], …), real CLI nodes use
    {!Vegvisir.Hash_id.short} of their user id — so traces from both
    worlds merge into one timeline. *)

type node = string

(** {1 Per-subsystem vocabularies} *)

(** One block's causal lifecycle, in order. [Sent] and [Received] carry
    the far peer in [peer]; [Witnessed] carries the witnessing creator,
    so distinct-witness quorums can be counted from the trace alone. *)
type block_phase = Created | Sent | Received | Validated | Delivered | Witnessed

(** Why the simulated radio lost a frame. *)
type drop_reason = Link_loss | Disconnected | Asleep

(** Why a gossip session was abandoned (mirrors
    {!Vegvisir_engine.Peer_engine.abort_reason}). *)
type abort_reason = Stalled | Timed_out

type t =
  | Block of {
      node : node;
      phase : block_phase;
      block : Vegvisir.Hash_id.t;
      peer : node option;
    }  (** one step of one block's causal lifecycle at one node *)
  | Block_redundant of {
      node : node;
      block : Vegvisir.Hash_id.t;
      peer : node option;
    }
      (** a block delivered by a gossip session that the node already
          held — redundant transfer work, the waste term of gossip
          efficiency *)
  | Blocks_advertised of { node : node; peer : node; hashes : int }
      (** [peer] advertised [hashes] block hashes to [node] without
          shipping the blocks (digest leaves) *)
  | Net_sent of { src : node; dst : node; bytes : int }
  | Net_delivered of { src : node; dst : node; bytes : int }
  | Net_dropped of { src : node; dst : node; bytes : int; reason : drop_reason }
  | Partition_changed of { groups : int list option }
      (** the simulated network's partition map changed: [Some gs] gives
          one group id per node index; [None] means the partition was
          lifted (all nodes reachable again). Encoded on the wire as a
          single comma-joined string field (["0,0,1,1"]; ["-"] when
          lifted). *)
  | Session_started of { node : node; peer : node; generation : int }
  | Session_completed of {
      node : node;
      peer : node;
      generation : int;
      blocks : int;
      duration_ms : float;
          (** elapsed driver-clock time from this session's
              [Session_started] — per-peer exchange-latency attribution *)
    }
  | Session_aborted of {
      node : node;
      peer : node;
      generation : int;
      reason : abort_reason;
    }
  | Request_resent of {
      node : node;
      peer : node;
      generation : int;
      attempt : int;
    }
  | Leader_elected of { node : node; term : int }
      (** a Raft superpeer won an election *)
  | Block_archived of { node : node; block : Vegvisir.Hash_id.t; index : int }
      (** a block committed to a superpeer's support chain at [index] *)
  | Store_loaded of { node : node; blocks : int }
  | Store_saved of { node : node; blocks : int }
  | Sync_started of { node : node; peer : node }
  | Sync_completed of { node : node; peer : node; pulled : int; served : int }
  | Recovery_completed of { node : node; peer : node; blocks : int }
      (** a batch ancestry recovery ([vegvisir-cli recover]) restored
          [blocks] missing blocks from [peer]'s store *)
  | Span of {
      node : node;
      trace : string;
      span : string;
      parent : string option;
      name : string;
      dur_ms : float;
    }
      (** one finished span of a distributed trace: [trace] groups the
          spans of one causal story (an exchange session, one block's
          propagation) across every daemon that touched it, [span] is
          this span's identity, [parent] its causal parent when known.
          Ids are 16-hex-char deterministic derivations (see
          {!Vegvisir.Reconcile.session_trace_ids}) — no randomness, so
          same-seed runs journal byte-identical spans. [dur_ms] is [0.]
          for instant (point-in-time) spans. The span [name] doubles as
          the event kind. *)

val subsystem : t -> string
(** ["block"], ["gossip"], ["net"], ["session"], ["cluster"], or
    ["store"] — the grouping key of the taxonomy. *)

val kind : t -> string
(** The event name within its subsystem (e.g. ["created"], ["aborted"]). *)

val primary_node : t -> node option
(** The node whose state the event describes: the acting node for block,
    session, cluster, and store events; the sender (receiver for
    deliveries) of a radio event; [None] for fleet-wide events. Used to
    derive a replica fleet from merged journals. *)

val equal : t -> t -> bool
val pp : t Fmt.t

val phase_to_string : block_phase -> string
val phase_of_string : string -> block_phase option
val block_phase_equal : block_phase -> block_phase -> bool

(** {1 JSONL codec}

    One event per line, fields in a fixed order, floats rendered as the
    shortest decimal that parses back exactly — so identical event
    streams serialize to byte-identical files, and decode ∘ encode is
    the identity. *)

val to_json : ts:float -> t -> string
(** One JSON object (no trailing newline):
    [{"t":…,"sub":…,"ev":…,…fields…}]. *)

val to_json_buf : Buffer.t -> ts:float -> t -> unit
(** Exactly {!to_json}'s bytes, appended to a caller-supplied buffer —
    the allocation-free hot path for sinks that journal every event
    (reuse one buffer across lines instead of materializing a string
    per event). *)

val to_json_lines : Buffer.t -> ts:float -> t list -> unit
(** One {!to_json} line per event, each ended by a newline, all stamped
    [ts], appended to the buffer; the stamp is rendered once for the
    batch. *)

val of_json : string -> (float * t) option
(** Total inverse of {!to_json}; [None] on malformed input. *)

val json_float : float -> string
(** The codec's float rendering — exposed for sinks that serialize
    numeric payloads of their own (e.g. registry JSON dumps). *)

val json_string : string -> string
(** JSON string literal with escaping, including the quotes. *)
