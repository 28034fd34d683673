(** SHA-256 (FIPS 180-4) with an incremental API, plus HMAC.

    Digests are 32-byte raw strings; use {!Hex.encode} for display.

    Two kernels compute the same compression. A CPU probe at start-up
    picks one for the whole process, and nothing else chooses:
    - on an x86-64 CPU with the SHA extensions, a C kernel on
      [sha256rnds2]/[sha256msg1]/[sha256msg2] ("sha-ni");
    - everywhere else, the OCaml word kernel ("ocaml"), over native
      [int] arithmetic masked to 32 bits, which is correct on 64-bit
      platforms (OCaml's [int] is 63-bit).

    {!Portable} always runs the OCaml kernel: it is the reference the
    tests compare the other against. *)

module type S = sig
  type ctx
  (** An in-progress hash computation. *)

  val digest_size : int
  (** Always 32. *)

  val init : unit -> ctx
  (** A fresh context. *)

  val feed : ctx -> string -> unit
  (** [feed ctx s] absorbs all of [s]. *)

  val feed_bytes : ctx -> bytes -> int -> int -> unit
  (** [feed_bytes ctx b off len] absorbs [len] bytes of [b] at [off]. *)

  val finalize : ctx -> string
  (** [finalize ctx] is the 32-byte digest. The context must not be used
      afterwards. *)

  val digest : string -> string
  (** One-shot hash of a string. *)

  val digest_list : string list -> string
  (** [digest_list parts] hashes the concatenation of [parts] without
      building the concatenation. *)

  val iterate : prefix:string -> bytes -> string -> unit
  (** [iterate ~prefix values steps] runs k = [String.length steps]
      hash chains at once, the hash chains of {!Wots}: chain [i] is the
      32 bytes of [values] at [32 * i], and it becomes the result of
      applying [v <- digest (prefix ^ v)] to them [Char.code steps.[i]]
      times (0 leaves it as it is), in place. Each step is one
      compression with no allocation; the SHA-NI kernel runs all k
      chains in one call, two at a time.
      @raise Invalid_argument unless [values] is [32 * k] bytes and
      [prefix] is at most 23 bytes (so [prefix ^ v] pads to one
      block). *)

  val hmac : key:string -> string -> string
  (** HMAC-SHA-256 (RFC 2104). *)
end

include S

val kernel : string
(** The kernel this process runs: ["sha-ni"] or ["ocaml"]. *)

module Portable : S
(** The OCaml word kernel, on every CPU. *)
