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
  signature : string;
  hash : Hash_id.t;  (** cached identity: hash of the encoding *)
  size : int;  (** cached length of the encoding, {!byte_size} *)
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

val verify_signature : ?ots:bool -> public:string -> scheme:string -> t -> bool
(** [ots] is an earlier {!ots_holds} result for this block; see
    {!Signer.verify}. *)

val ots_holds : t -> bool option
(** {!Signer.ots_holds} over the block's signing bytes and signature: the
    costly, certificate-free half of its MSS check. The block hash
    covers both, so a result keyed by hash names exactly the bytes it
    checked. *)

val is_genesis : t -> bool
val encode : Buffer.t -> t -> unit
val decode : Wire.cursor -> t
(** Recomputes and caches the hash. *)

val to_string : t -> string
val of_string : string -> t option
val byte_size : t -> int
val equal : t -> t -> bool
(** Identity equality (hash comparison). *)

val compare : t -> t -> int
val pp : t Fmt.t
