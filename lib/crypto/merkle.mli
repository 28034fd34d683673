(** Merkle hash trees over arbitrary leaf values.

    Leaves are hashed with a domain-separated tag before being combined, so
    a leaf value cannot be confused with an interior node (second-preimage
    hardening). Trees are built over any positive number of leaves; odd
    levels promote the dangling node unchanged. *)

type tree

val leaf_hash : string -> string
(** [leaf_hash v] is the tagged hash of leaf value [v]. *)

val node_hash : string -> string -> string
(** [node_hash l r] is the tagged hash of two child digests. *)

val build : string list -> tree
(** [build leaves] builds a tree over the leaf {e values} (they are hashed
    internally). @raise Invalid_argument on the empty list. *)

val root : tree -> string
(** The 32-byte root digest. *)

val size : tree -> int
(** Number of leaves. *)

type path = (string * [ `Left | `Right ]) list
(** An authentication path: sibling digests from leaf to root; the tag says
    on which side the {e sibling} sits. *)

val path : tree -> int -> path
(** [path t i] is the authentication path for leaf [i].
    @raise Invalid_argument if [i] is out of range. *)

val path_root : leaf:string -> path -> string
(** [path_root ~leaf p] is the root that path [p] leads to from leaf
    {e value} [leaf]: [leaf] is included under a root via [p] exactly
    when this is that root. *)
