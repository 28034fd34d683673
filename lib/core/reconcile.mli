(** Opportunistic DAG reconciliation (§IV-G, Algorithm 1, Fig. 3).

    The protocol logic itself lives in {!Sync_strategy} — each mode is a
    first-class strategy module owning its message constructors,
    responder logic and session step. This module is the session
    {e driver}: it threads the packed strategy state, accounts transfer
    statistics, orders merged blocks parents-first, and keeps the
    pre-strategy API shape so hosts (the sans-IO
    {!Vegvisir_engine.Peer_engine}, the simnet adapter, the daemon)
    are strategy-agnostic.

    Available modes:
    - [Naive] — the paper's Algorithm 1 (level escalation; re-ships
      every level each round).
    - [Bloom] — the request is a Bloom filter over {e all} held hashes
      (~10 bits/block instead of 32 bytes/hash); false positives are
      recovered with explicit block requests.
    - [Digest] — Merkle-style height-interval digests with recursive
      narrowing; at convergence a session costs one tiny request and
      one empty reply, and no block is ever shipped twice. *)

type mode = Sync_strategy.mode = Naive | Bloom | Digest

module Mode = Sync_strategy.Mode
(** [Mode.of_string] / [Mode.to_string] / [Mode.all] for CLI flags,
    experiment drivers and bench groups. *)

type interval = Sync_strategy.interval = { lo : int; hi : int; digest : string }
type leaf = Sync_strategy.leaf = { lo : int; hi : int; hashes : Hash_id.t list }

type message = Sync_strategy.message =
  | Frontier_request of { level : int }
  | Frontier_reply of { level : int; blocks : Block.t list }
  | Bloom_request of { filter : string }
  | Bloom_reply of { blocks : Block.t list }
  | Blocks_request of { hashes : Hash_id.t list }
  | Blocks_reply of { blocks : Block.t list }
  | Digest_request of { upto : int; intervals : interval list }
  | Digest_reply of { splits : interval list; leaves : leaf list }
  | Trace_context of { trace : string; span : string }

type stats = {
  rounds : int;  (** request/reply round trips *)
  messages : int;
  bytes_sent : int;  (** from the initiator *)
  bytes_received : int;  (** by the initiator *)
  blocks_received : int;
  redundant_blocks : int;  (** received blocks the initiator already had *)
}

val empty_stats : stats
val add_stats : stats -> stats -> stats
val stats_equal : stats -> stats -> bool
val message_size : message -> int
(** Encoded size in bytes (used for bandwidth/energy accounting). *)

val encode_message : Buffer.t -> message -> unit
val decode_message : Wire.cursor -> message
val message_equal : message -> message -> bool

val is_request : message -> bool
val reply_blocks : message -> Block.t list
(** Block payload of a reply ([[]] for requests and digest messages). *)

val advertised_hashes : message -> Hash_id.t list
(** Hashes the sender claims to hold without shipping the blocks
    (digest leaves) — {!Pending_pool} advertisement fodder. *)

val session_trace_ids : initiator:Hash_id.t -> generation:int -> string * string
(** Deterministic [(trace_id, span_id)] for a session — see
    {!Sync_strategy.session_trace_ids}. *)

val trace_sampled : initiator:Hash_id.t -> generation:int -> rate:float -> bool
(** Deterministic head-sampling decision — see
    {!Sync_strategy.trace_sampled}. *)

(** Responder side: answer any request from the local DAG. *)
val respond : Dag.t -> message -> message option
(** [None] for messages that are not requests. *)

(** Initiator side: a pull session.

    A [session] is an immutable value: {!handle_reply} returns the
    successor state alongside the step, so drivers (the sans-IO
    {!Vegvisir_engine.Peer_engine}, tests, the local {!sync_dags} loop)
    can thread, snapshot, and replay sessions freely. *)
type session

val start : mode -> Dag.t -> session * message
(** The session and the first request to send. *)

val session_mode : session -> mode

type step =
  | Send of message  (** escalate: send this next request *)
  | Finished of { new_blocks : Block.t list; stats : stats }
      (** [new_blocks] are the responder's blocks absent locally. Blocks
          whose local insertion can succeed come first, parents before
          children; blocks with ancestry that is unavailable even from the
          responder (pruned/offloaded, §IV-I) follow at the end so the
          caller can buffer them and recover the gap from a support
          blockchain. *)
  | Ignored
      (** a stale duplicate (e.g. a retransmitted request produced two
          replies for the same level) — drop it and keep waiting *)

val handle_reply : session -> Dag.t -> message -> session * step
(** Feed the responder's reply. A reply that does not belong to this
    session's strategy (a stale or foreign frame) is [Ignored].
    @raise Invalid_argument on a request (not a reply). *)

val current_request : session -> message
(** The request the session is currently waiting on — what a transport
    should retransmit when it suspects the previous copy (or its reply)
    was lost. *)

val sync_dags : mode -> Dag.t -> Dag.t -> Dag.t * stats
(** Run a whole pull session locally: merge [src] into [dst], returning
    the updated [dst] and transfer statistics. Blocks are inserted without
    re-validation (both DAGs are assumed validated). *)
