(** Pluggable anti-entropy sync strategies.

    {!Reconcile} used to hard-code three protocols behind a closed
    polymorphic variant; this module turns each protocol into a
    first-class strategy value ({!module-type-S}): the strategy owns its
    request/reply constructors, its responder logic, and its session
    step function, and the {!Reconcile} driver only threads state,
    accounts statistics, and orders the merged blocks. Adding a protocol
    means adding one module here plus a {!mode} constructor — no driver
    or host changes.

    Three strategies ship:

    - {!Naive} — the paper's Algorithm 1: repeated level-frontier
      requests with escalation (re-ships every level each round, hence
      the measured 95–98% gossip redundancy at steady state).
    - {!Bloom} — the request is a Bloom filter over all held hashes;
      false positives are recovered with explicit block requests.
    - {!Digest} — Merkle-style recursive narrowing: the request carries
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

(** First-class mode names for flag parsing, experiment drivers and
    bench groups. *)
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
          protocol state: every strategy treats it as [Foreign], the
          responder side answers [None], and peers predating the tag
          drop the frame at {!Wire.decode_string}. *)

val encode_message : Buffer.t -> message -> unit
(** Wire tags 1, 2 and 5–8 are byte-identical to the pre-strategy
    encoding (old journals and same-seed traces replay unchanged);
    digest messages use tags 9/10, the span-tracing context frame tag
    11. Tags 3 and 4 (the retired indexed strategy) are never reused and
    no longer decode. *)

val decode_message : Wire.cursor -> message
(** @raise Wire.Malformed on an unknown tag or truncated payload. *)

val message_size : message -> int
val message_equal : message -> message -> bool

val is_request : message -> bool

val reply_blocks : message -> Block.t list
(** Block payload of a reply ([[]] for requests and digest messages). *)

val advertised_hashes : message -> Hash_id.t list
(** Hashes the sender of this message claims to hold without shipping
    the blocks (digest leaves) — {!Pending_pool} advertisement
    fodder. *)

(** Outcome of feeding one reply to a strategy session. *)
type outcome =
  | Continue of message  (** send this next request *)
  | Done of Block.t list
      (** session complete; the responder's blocks absent locally, in
          arrival order (the driver re-orders parents-first) *)
  | Foreign  (** not this strategy's reply (stale or cross-mode frame) *)

(** What a sync strategy owns: its session state, the first request,
    retransmission, the reply step, and the responder side for its own
    request constructors. *)
module type S = sig
  type state

  val mode : mode

  val start : Dag.t -> state * message
  (** Fresh session over the local DAG and the first request. *)

  val request : state -> message
  (** The in-flight request — what a transport should retransmit. *)

  val on_reply : state -> Dag.t -> message -> state * outcome

  val respond : Dag.t -> message -> message option
  (** Answer this strategy's requests from the local DAG; [None] for
      anything that is not one of its requests. *)
end

module Naive : S
module Bloom : S
module Digest : S

val of_mode : mode -> (module S)

(** {1 Packed sessions}

    Existentially packed strategy state, so drivers thread a session
    without knowing which strategy is inside. *)

type packed

val start_session : mode -> Dag.t -> packed * message
val session_mode : packed -> mode
val session_request : packed -> message
val session_step : packed -> Dag.t -> message -> packed * outcome

val respond : Dag.t -> message -> message option
(** Responder side over all strategies: dispatches requests to their
    owning strategy (plus the shared {!message.Blocks_request});
    [None] for replies. The work is bounded by the request and the DAG:

    - a {!message.Blocks_request} is answered once per distinct resident
      hash, in the order first named, and the reply stops before its
      encoding would pass {!Wire.max_frame} (the bloom and digest
      sessions then ask again for what the reply left out);
    - a {!message.Digest_request} whose intervals are not non-empty,
      ascending and disjoint gets no reply ([None]), and each interval
      costs only the heights present in it. *)

(** The digest strategy's view of a replica: every known hash (resident
    or archived) bucketed by DAG height, each bucket in [Hash_id] order. *)
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

val bloom_of_dag : Dag.t -> string
(** The serialized filter {!Bloom} advertises (resident + archived). *)
