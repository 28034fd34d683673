(** Bounded pool of blocks waiting on missing dependencies.

    Replaces the list-based pending queues in {!Node} and {!Offload}:
    membership is a hash-map lookup, the size is an O(1) counter, and
    insertion order is kept so drains retry oldest-first and capacity
    evicts the oldest entry — the same observable behavior as the former
    newest-first list with its tail trimmed, without the O(n) scan per
    insert. *)

type t

val create : ?capacity:int -> unit -> t
(** Unbounded unless [capacity] is given.
    @raise Invalid_argument if [capacity < 1]. *)

val add : t -> Block.t -> t
(** No-op if a block with the same hash is already pooled. If adding
    exceeds the capacity, the oldest entry is evicted. *)

val remove : t -> Hash_id.t -> t
val mem : t -> Hash_id.t -> bool
val cardinal : t -> int
val is_empty : t -> bool

val blocks : t -> Block.t list
(** Oldest-first. *)

val to_seq : t -> Block.t Seq.t
(** Oldest-first, without materializing the list. *)

val fold : (Block.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Oldest-first. *)

type retried =
  | Resident  (** the retry made the block resident: it leaves the pool *)
  | Dropped  (** the block can never be admitted: it leaves the pool *)
  | Waiting  (** its dependencies are still missing: it stays *)

val drain : t -> (Block.t -> retried) -> t * Block.t list
(** The one retry loop behind every buffered intake: pass over the pooled
    blocks oldest-first, asking [retry] about each, and start another
    pass while the last one made a block resident. Returns the pool
    without the blocks that left it, and the blocks made resident in the
    order [retry] made them so. *)
