(** Winternitz one-time signatures (W-OTS) over SHA-256, with w = 16.

    The message digest is split into its 64 nibbles; each selects a
    position along a hash chain of {!chain_max} steps. A 3-nibble
    checksum over them prevents an attacker from advancing chains
    (increasing a nibble forces the checksum down, which would require
    inverting a chain). A signature is {!len} = 67 chains of 32 bytes,
    2,144 bytes — an order of magnitude smaller than a 16 KB Lamport
    signature.

    One-time: signing two distinct messages with one key breaks security.
    {!Mss} layers many-time use on top. *)

val len : int
(** Chains per key and signature: 64 message nibbles plus 3 checksum
    nibbles. *)

val chain_max : int
(** Steps in a full chain, [15]. *)

type secret_key
type public_key = string (** 32-byte commitment (hash of chain ends). *)

type signature

val derive : seed:string -> secret_key * public_key
(** Deterministic key pair from a 32-byte seed: lets {!Mss} regenerate
    leaves on demand instead of storing them. *)

val sign : secret_key -> string -> signature
val verify : public_key -> string -> signature -> bool

val signature_size : int
(** [len * 32]. *)

val signature_to_string : signature -> string
val signature_of_string : string -> signature option
