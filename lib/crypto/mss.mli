(** Merkle signature scheme: many-time signatures from W-OTS one-time keys.

    A key pair holds [2^height] W-OTS leaf key pairs, derived on demand
    from a master seed; the public key is the Merkle root over the leaf
    public keys. Each signature consumes one leaf and carries the leaf
    index, the W-OTS signature, the leaf public key, and its Merkle
    authentication path. Verification needs only the 32-byte root.

    Signing is stateful: a key signs at most [2^height] messages and each
    leaf is used once. {!sign} raises {!Exhausted} when no leaves remain. *)

exception Exhausted

type secret_key
type public_key = string (** 32-byte Merkle root. *)

type signature

val generate : height:int -> seed:string -> secret_key * public_key
(** [generate ~height ~seed] derives a key pair with [2^height] leaf
    keys from a (secret) seed. [height] must be in [0..20].
    Key generation performs [2^height] W-OTS key derivations, so keep
    [height] modest in tests. *)

val sign : secret_key -> string -> signature
(** Consumes the next unused leaf. @raise Exhausted when none remain. *)

val verify : public_key -> string -> signature -> bool
(** Checks the W-OTS signature, the authentication path to the root, and
    that the leaf index names the leaf the path authenticates: a
    signature whose index bytes were rewritten does not verify. It is
    [proven_root msg s = Some pk]. *)

val proven_root : string -> signature -> string option
(** The public key a signature proves for a message, found without
    knowing any key: [Some root] when the leaf index names the leaf its
    path authenticates and the W-OTS chains over the message rebuild
    the leaf key, where [root] is where the path leads; [None] when it
    verifies under no key. All of {!verify}'s hashing, and safe to run
    on any domain. *)

val ots_holds : string -> signature -> bool
(** The W-OTS half of {!proven_root}: the signature over the message
    rebuilds the leaf public key the signature carries. About 98% of a
    verify's hashing. *)

val remaining : secret_key -> int
(** Leaves not yet consumed. *)

val used : secret_key -> int
(** Leaves consumed so far. *)

val advance : secret_key -> int -> unit
(** [advance sk n] marks the first [n] leaves as consumed — restoring a
    persisted key's position after re-deriving it from its seed. [n] may
    not be smaller than the already-consumed count (one-time keys must
    never be reused). @raise Invalid_argument on rewind or overflow. *)

val capacity : secret_key -> int
(** Total leaves, [2^height]. *)

val public_of_secret : secret_key -> public_key

val signature_to_string : signature -> string
val signature_of_string : string -> signature option
val signature_size : height:int -> int
(** Serialized size of a signature for a key of the given height (paths to
    a full tree have exactly [height] siblings). *)
