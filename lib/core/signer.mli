(** Signature scheme abstraction.

    Blocks and certificates are signed through this interface. Two schemes
    are provided:

    - [mss] — the real hash-based Merkle signature scheme from
      {!Vegvisir_crypto.Mss}. Stateful and bounded: a key signs at most
      [2^height] messages. Used by the examples and anywhere actual
      unforgeability matters.
    - [oracle] — a simulation-only scheme whose "signatures" are hashes
      over the (public) key id, so {e anyone} could forge them. It exists
      so large-scale experiments are not dominated by hash-chain work; the
      simulator's adversaries are scripted never to forge. Oracle
      signatures have a configurable size so bandwidth/energy accounting
      can model any real scheme's overhead. Never use outside the
      simulator.

    A signature's scheme travels inside the certificate ([scheme] field),
    and {!verify} dispatches on it. *)

type t = {
  scheme : string;  (** ["mss"] or ["oracle"] *)
  public : string;  (** serialized public key *)
  sign : string -> string;  (** message -> signature bytes (stateful) *)
  remaining : unit -> int option;
      (** signatures left, [None] if unbounded *)
}

val mss : ?height:int -> ?used:int -> seed:string -> unit -> t
(** Default height is 8 (256 signatures). [used] fast-forwards past
    already-consumed one-time leaves — required when restoring a
    persisted key, because reusing a leaf breaks the scheme. *)

val oracle : ?signature_size:int -> id:string -> unit -> t
(** [signature_size] defaults to the size of an MSS height-8 signature so
    that byte accounting matches the real scheme. *)

val verify : scheme:string -> public:string -> msg:string -> string -> bool
(** [verify ~scheme ~public ~msg signature] dispatches on [scheme];
    unknown schemes verify as [false]. *)

val proven_root : msg:string -> signature:string -> string option
(** The MSS public key [signature] proves for [msg]
    ({!Vegvisir_crypto.Mss.proven_root}): [None] when it does not parse
    as MSS or verifies under no key. An MSS {!verify} is this result
    compared with [public]. It needs no certificate, so a batch can run
    it before its signers are known, and any domain may run it. *)

val user_id_of_public : string -> Hash_id.t
(** A user's ID is the hash of its serialized public key. *)
