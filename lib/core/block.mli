(** Blocks: header, transactions, creator signature (§IV-D, Fig. 2).

    The header holds the creator's user ID, a timestamp, an optional
    physical location, and the hashes of the parent blocks. A block with
    no parents is a genesis block. The block's identity is the SHA-256 of
    its full canonical encoding (signature included), so any tampering
    changes the identity and detaches all descendants — the tamperproofness
    argument (§IV-A). *)

type t = private {
  creator : Hash_id.t;
  timestamp : Timestamp.t;
  location : Location.t option;
  parents : Hash_id.t list;  (** sorted, unique *)
  transactions : Transaction.t list;
  hash : Hash_id.t;  (** cached identity: hash of [bytes] *)
  bytes : string;
      (** the canonical encoding the block was created or decoded
          from, signature last: {!encode} copies it and {!to_string}
          returns it *)
  signature_at : int;  (** where the signature starts in [bytes] *)
}

val signing_bytes :
  creator:Hash_id.t ->
  timestamp:Timestamp.t ->
  location:Location.t option ->
  parents:Hash_id.t list ->
  transactions:Transaction.t list ->
  string
(** Canonical bytes covered by the block signature (everything except the
    signature itself). *)

val create :
  signer:Signer.t ->
  creator:Hash_id.t ->
  timestamp:Timestamp.t ->
  ?location:Location.t ->
  parents:Hash_id.t list ->
  Transaction.t list ->
  t
(** Sign and seal a block. Parents are de-duplicated and sorted, making
    the encoding canonical. *)

val signature : t -> string
(** The creator's signature, read out of [bytes]. *)

val verify_signature :
  ?proven:string option -> public:string -> scheme:string -> t -> bool
(** [proven] is an earlier {!proven_root} result for this block: for
    the MSS scheme it decides the check by one comparison with
    [public]; other schemes ignore it. *)

val proven_root : t -> string option
(** {!Signer.proven_root} over the block's signing bytes and signature:
    the MSS public key the signature proves, with all of its hashing.
    It needs no certificate, and any domain may run it. The block hash
    covers both inputs, so a result keyed by hash names exactly the
    bytes it checked. *)

val is_genesis : t -> bool
val encode : Buffer.t -> t -> unit
val decode : Wire.cursor -> t
(** Keeps the block's bytes and caches their hash. *)

val to_string : t -> string
val of_string : string -> t option
val byte_size : t -> int
val equal : t -> t -> bool
(** Identity equality (hash comparison). *)

val compare : t -> t -> int
val pp : t Fmt.t
