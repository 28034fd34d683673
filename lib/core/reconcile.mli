(** Opportunistic DAG reconciliation (§IV-G, Algorithm 1, Fig. 3).

    One request/reply pull protocol with a closed set of three modes.
    This module owns the messages and their codec, the stateless
    responder, and the initiator's pull session for every mode, so hosts
    (the sans-IO {!Vegvisir_engine.Peer_engine}, the simnet adapter, the
    daemon) stay mode-agnostic.

    - [Naive] — the paper's Algorithm 1: repeated level-frontier
      requests with escalation (re-ships every level each round, hence
      the measured 95–98% gossip redundancy at steady state).
    - [Bloom] — the request is a Bloom filter over {e all} held hashes
      (~10 bits/block instead of 32 bytes/hash); false positives are
      recovered with explicit block requests.
    - [Digest] — Merkle-style recursive narrowing: the request carries
      height-interval digests (SHA-256 over the Hash_id-sorted hashes in
      the interval, resident and archived); the responder answers each
      mismatched interval with either two sub-interval digests or, for
      small intervals, an explicit hash-list leaf. The initiator narrows
      recursively (O(log height) rounds) and finally pulls exactly the
      blocks it lacks with {!message.Blocks_request} — at convergence a
      session costs one ~40-byte request and one empty reply, and no
      block is ever shipped twice.

    Everything here is pure: no clock, no randomness, no I/O. *)

type mode = Naive | Bloom | Digest

(** [Mode.of_string] / [Mode.to_string] / [Mode.all] for CLI flags,
    experiment drivers and bench groups. *)
module Mode : sig
  type t = mode

  val all : mode list
  (** In presentation order: [Naive; Bloom; Digest]. *)

  val to_string : mode -> string
  val of_string : string -> mode option
  val equal : mode -> mode -> bool
  val pp : Format.formatter -> mode -> unit
end

type interval = { lo : int; hi : int; digest : string }
(** A height range [lo..hi] (inclusive) and the SHA-256 digest of the
    Hash_id-sorted hashes whose DAG height falls inside it. *)

type leaf = { lo : int; hi : int; hashes : Hash_id.t list }
(** A narrowed-to-the-bottom range: the responder's explicit hashes. *)

type message =
  | Frontier_request of { level : int }
  | Frontier_reply of { level : int; blocks : Block.t list }
  | Bloom_request of { filter : string }
  | Bloom_reply of { blocks : Block.t list }
  | Blocks_request of { hashes : Hash_id.t list }
  | Blocks_reply of { blocks : Block.t list }
  | Digest_request of { upto : int; intervals : interval list }
      (** [upto] is the highest height any request of this session has
          covered so far; the responder treats everything it holds above
          [upto] as one extra mismatched interval. *)
  | Digest_reply of { splits : interval list; leaves : leaf list }
  | Trace_context of { trace : string; span : string }
      (** Optional span-tracing context (tag 11), sent by an initiator
          ahead of its first request so the responder can stitch its
          serve-side spans into the initiator's trace. Carries no
          protocol state: no session takes it as a reply, {!respond}
          answers [None], and peers predating the tag drop the frame at
          {!Wire.decode_string}. *)

val encode_message : Buffer.t -> message -> unit
(** Wire tags 1, 2 and 5–8 are byte-identical to the encoding before the
    digest mode (old journals and same-seed traces replay unchanged);
    digest messages use tags 9/10, the span-tracing context frame tag
    11. Tags 3 and 4 (the retired indexed strategy) are never reused and
    no longer decode. *)

val decode_message : Wire.cursor -> message
(** @raise Wire.Malformed on an unknown tag or truncated payload. *)

val message_size : message -> int
(** Encoded size in bytes (used for bandwidth/energy accounting). *)

val message_equal : message -> message -> bool
val is_request : message -> bool

val reply_blocks : message -> Block.t list
(** Block payload of a reply ([[]] for requests and digest messages). *)

val advertised_hashes : message -> Hash_id.t list
(** Hashes the sender claims to hold without shipping the blocks
    (digest leaves) — {!Pending_pool} advertisement fodder. *)

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

(** {1 Responder} *)

val respond : Dag.t -> message -> message option
(** Answer any request from the local DAG, keeping no per-peer memory.
    [None] means a reply, or a request it refuses: a
    {!message.Digest_request} whose intervals are not non-empty,
    ascending and disjoint. The work is bounded by the request and the
    DAG:

    - a {!message.Blocks_request} is answered once per distinct resident
      hash, in the order first named;
    - a {!message.Bloom_request} is answered with the blocks the filter
      lacks, parents first;
    - both replies stop before their encoding would pass
      {!Wire.max_frame} (the session then asks again, or the next one
      does, for what a reply left out);
    - each digest interval costs only the heights present in it. *)

(** {1 Initiator: a pull session}

    A [session] is an immutable value: {!handle_reply} returns the
    successor state alongside the step, so drivers (the sans-IO
    {!Vegvisir_engine.Peer_engine}, tests, the local {!sync_dags} loop)
    can thread, snapshot, and replay sessions freely. *)

type session

val start : mode -> Dag.t -> session * message
(** The session and the first request to send. *)

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
    session's mode and phase (a stale or foreign frame) is [Ignored].
    @raise Invalid_argument on a request (not a reply). *)

val current_request : session -> message
(** The request the session is currently waiting on — what a transport
    should retransmit when it suspects the previous copy (or its reply)
    was lost. *)

val sync_dags : mode -> Dag.t -> Dag.t -> Dag.t * stats
(** Run a whole pull session locally: merge [src] into [dst], returning
    the updated [dst] and transfer statistics. Blocks are inserted without
    re-validation (both DAGs are assumed validated). *)

(** The digest mode's view of a replica: every known hash (resident or
    archived) bucketed by DAG height, each bucket in [Hash_id] order. *)
module Height_table : sig
  type t

  val of_dag : Dag.t -> t

  val fold_range : t -> lo:int -> hi:int -> ('a -> Hash_id.t -> 'a) -> 'a -> 'a
  (** Folds over the hashes at heights [lo..hi], lowest height first. It
      visits only the heights present, so its cost does not grow with
      [hi - lo]. *)
end

(** {1 Deterministic span identity}

    Cross-daemon tracing needs ids both ends can mint without
    coordination and without randomness. Both helpers are pure SHA-256
    derivations over the initiating node's identity and its session
    sequence number, so same-seed runs produce byte-identical ids. *)

val session_trace_ids : initiator:Hash_id.t -> generation:int -> string * string
(** [(trace_id, span_id)] for the exchange session [generation]
    initiated by [initiator] — 16 lowercase hex characters each. The
    responder recovers the same pair from the {!message.Trace_context}
    frame, never by re-derivation (it does not know the initiator's
    generation counter). *)

val trace_sampled : initiator:Hash_id.t -> generation:int -> rate:float -> bool
(** Head-sampling decision for that session: a deterministic uniform
    hash of (initiator, generation) compared against [rate]. [rate >= 1.]
    keeps everything, [rate <= 0.] nothing. *)
