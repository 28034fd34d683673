(** A Vegvisir participant: key material, local DAG replica, and CRDT
    state machine, with the block intake pipeline (validate → store →
    apply → retry buffered).

    Blocks that fail {e transient} checks (unknown creator certificate,
    missing parents) are buffered and retried as new blocks arrive;
    permanently invalid blocks are dropped and counted. When the node
    appends a transaction, every known frontier block becomes a parent of
    the new block — the branch "reining in" of §IV-A. *)

type receive_result =
  | Accepted
  | Duplicate
  | Buffered of Validation.error
  | Rejected of Validation.error

type append_error =
  | No_genesis
  | Prepare_failed of Vegvisir_crdt.Schema.error
  | Signer_exhausted
  | Self_rejected of Validation.error

type stats = {
  mutable created : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable duplicates : int;
}

type t

val create :
  ?max_pending:int ->
  signer:Signer.t ->
  cert:Certificate.t ->
  unit ->
  t
(** [max_pending] bounds the transient buffer (default 4096; oldest
    entries are evicted first). *)

val genesis_block :
  signer:Signer.t ->
  cert:Certificate.t ->
  timestamp:Timestamp.t ->
  ?location:Location.t ->
  ?extra:Transaction.t list ->
  unit ->
  Block.t
(** Build a genesis block: the owner's self-signed certificate first,
    then [extra] transactions (e.g. initial CRDT creations, §IV-C). *)

val user_id : t -> Hash_id.t
val cert : t -> Certificate.t
val dag : t -> Dag.t
val csm : t -> Csm.t
val membership : t -> Membership.t option
val stats : t -> stats
val pending_count : t -> int

val receive : t -> now:Timestamp.t -> Block.t -> receive_result
(** Feed one block through the intake pipeline, then drain the transient
    buffer to a fixpoint. *)

val intake : t -> now:Timestamp.t -> Block.t list -> Block.t list
(** Batch intake, with the same outcome as {!receive} on each block in
    order. Returns the blocks it made resident, in commit order: each
    accepted block of the batch followed by the buffered blocks its
    accept drained (from this batch or an earlier call). A duplicate,
    buffered or rejected block is not returned.

    First, when a batch has two or more blocks that are neither
    resident nor archived (and not by a member known to sign with
    another scheme), the hashing of their MSS check
    ({!Block.proven_root}: the signature parsed once, its W-OTS chains,
    leaf index and path) runs on {!Domain_pool}, before any certificate
    is needed, so a batch may enrol its own signers. The proven keys,
    by block hash, serve this call only (its drains included); every
    block is still decided by {!Validation}, which compares the proven
    key with the creator's and checks membership, revocation and
    timestamps. A block buffered now and drained by a later call, or
    the lone candidate of a batch, is checked inline. *)

val receive_all : t -> now:Timestamp.t -> Block.t list -> unit
(** {!intake}, ignoring what it made resident. *)

val missing_dependencies : t -> Hash_id.Set.t
(** Parent hashes that block the transient buffer — what a device should
    request from a superpeer's support blockchain (§IV-I) when its peers
    have pruned that history. *)

val prepare_transaction :
  t ->
  crdt:string ->
  op:string ->
  Vegvisir_crdt.Value.t list ->
  (Transaction.t, Vegvisir_crdt.Schema.error) result
(** Originator-side preparation against local state (adds observed-tag
    metadata where the CRDT needs it; see {!Vegvisir_crdt.Store.prepare}). *)

val append :
  t ->
  now:Timestamp.t ->
  ?location:Location.t ->
  ?parents:Hash_id.t list ->
  Transaction.t list ->
  (Block.t, append_error) result
(** Create, sign, and locally apply a block whose parents are the current
    frontier. The timestamp is [max now (max parent timestamp + 1)].

    [?parents] overrides the frontier-reining parent choice; it exists
    solely for the branching ablation (experiment E1) that quantifies what
    reining buys. Real applications must not pass it. *)

val append_drained :
  t ->
  now:Timestamp.t ->
  ?location:Location.t ->
  ?parents:Hash_id.t list ->
  Transaction.t list ->
  (Block.t * Block.t list, append_error) result
(** {!append}, also returning the buffered blocks the new block's accept
    drained, in commit order: a block can enrol the creator of a block
    waiting in the transient buffer. *)

val witness : t -> now:Timestamp.t -> (Block.t, append_error) result
(** Append an empty block — the §IV-H persistence signal. *)

val rotate_key :
  t ->
  now:Timestamp.t ->
  signer:Signer.t ->
  cert:Certificate.t ->
  (Block.t, append_error) result
(** Switch to a fresh key pair — the lifecycle step hash-based signers
    need before exhaustion. Appends one block, signed by the old key,
    that enrols the (CA-signed) new certificate and self-revokes the old
    one; the node then signs as the new identity. History signed with
    the old key remains valid (revocation is causal, see
    {!Validation.check_block}).
    @raise Invalid_argument if [cert] is not for [signer]'s key. *)

val prune_to : t -> max_bytes:int -> archived:(Block.t -> unit) -> int
(** Offload support (§IV-I): prune oldest non-frontier blocks (canonical
    topological order) until the DAG's resident size is at most
    [max_bytes]; each pruned block is first handed to [archived] (the
    superpeer upload). Returns the number of blocks pruned. *)

val pp_receive_result : receive_result Fmt.t
val pp_append_error : append_error Fmt.t
