(** Winternitz one-time signatures (W-OTS) over SHA-256.

    The message digest is split into base-[2^b] chunks; each chunk selects a
    position along a hash chain. A checksum over the chunks prevents an
    attacker from advancing chains (increasing a chunk forces the checksum
    down, which would require inverting a chain). With the default [b = 4]
    a signature is 67 chains of 32 bytes ≈ 2.1 KB — an order of magnitude
    smaller than a 16 KB Lamport signature.

    One-time: signing two distinct messages with one key breaks security.
    {!Mss} layers many-time use on top. *)

type params = private {
  chunk_bits : int; (** bits per chunk, [1..8] *)
  len1 : int; (** message chunks *)
  len2 : int; (** checksum chunks *)
  len : int; (** [len1 + len2] *)
  chain_max : int; (** [2^chunk_bits - 1] *)
}

val params : ?chunk_bits:int -> unit -> params
(** Default [chunk_bits] is 4. @raise Invalid_argument outside [1..8]. *)

type secret_key
type public_key = string (** 32-byte commitment (hash of chain ends). *)

type signature

val generate : params -> Rng.t -> secret_key * public_key

val derive : params -> seed:string -> secret_key * public_key
(** Deterministic key pair from a 32-byte seed: lets {!Mss} regenerate
    leaves on demand instead of storing them. *)

val sign : secret_key -> string -> signature
val verify : params -> public_key -> string -> signature -> bool

val signature_size : params -> int
val signature_to_string : signature -> string
val signature_of_string : params -> string -> signature option
