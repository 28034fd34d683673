(** Block validation — the four checks of §IV-E.

    1. the creator must be a member of the blockchain (specified by U);
    2. parent blocks must already be in the blockchain;
    3. the timestamp must exceed the maximum of the parents' timestamps
       and not exceed the validator's current time (plus clock skew);
    4. the signature must be valid and match the creator's user ID.

    The membership check distinguishes transient from permanent failures:
    {!Unknown_creator} means the certificate may simply not have arrived
    yet (the caller should buffer and retry); {!Revoked_creator} is
    permanent only when the revocation lies in the block's causal past —
    blocks concurrent with their creator's revocation remain valid. *)

type error =
  | Unknown_creator  (** transient: buffer until the certificate arrives *)
  | Revoked_creator
  | Missing_parents of Hash_id.Set.t  (** transient: fetch parents first *)
  | Timestamp_not_after_parents
  | Timestamp_in_future
  | Bad_signature
  | Malformed_genesis of string
  | Duplicate_genesis

val default_max_skew_ms : int64
(** 5000 ms of tolerated clock skew: {!check_block} refuses a block
    stamped later than [now] plus this. *)

val check_genesis :
  ?proven:string option -> Block.t -> (Membership.t, error) result
(** Validate a genesis block standalone: no parents, carries a self-signed
    owner certificate whose subject is the creator, signature valid under
    that certificate. Returns the bootstrapped membership. [proven] is
    an earlier {!Block.proven_root} result for this block (see
    {!Block.verify_signature}). *)

val check_block :
  membership:Membership.t ->
  dag:Dag.t ->
  now:Timestamp.t ->
  ?proven:string option ->
  Block.t ->
  (unit, error) result
(** Validate a non-genesis block against local state. Assumes the DAG
    already holds a genesis. [proven] is an earlier {!Block.proven_root}
    result for this block: it stands in for check 4's hashing only, so
    membership, revocation, timestamps and the comparison with the
    creator's key still decide. *)

val is_transient : error -> bool
(** Errors worth buffering the block for ({!Unknown_creator},
    {!Missing_parents}). *)

val pp_error : error Fmt.t
