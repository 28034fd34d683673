(** The block DAG (§IV-C, Fig. 1), with incrementally maintained indices.

    Blocks point to their parents; the genesis block is the unique sink.
    The {e frontier} (level-1 frontier set) is the set of blocks with no
    successors; the level-N frontier adds N−1 generations of parents
    (Fig. 3) and drives reconciliation (Algorithm 1).

    The structure is immutable: [add] returns a new DAG sharing almost all
    state, so nodes can snapshot cheaply.

    {b Indices.} Every query a gossip reply, witness poll, or persistence
    pass needs on its hot path is served from an index maintained by
    {!add}/{!prune} rather than a traversal recomputed per call:

    - the {e canonical topological order} ({!topo_order}, {!topo_seq}) is
      cached and extended in O(1) by the monotone-timestamp fast path; an
      out-of-order insertion or a prune invalidates it and the next query
      re-runs Kahn once (amortized O(1) per block over any add sequence);
    - {!max_height} is an O(1) read;
    - every known hash is bucketed by height, and {!range_digest}
      hashes a height interval of the buckets straight into one SHA-256
      context; the digest over every height is memoized on the snapshot;
    - the {e witness index} ({!witness_set}, {!witness_count}) is built
      on the first query or {!prune} of a snapshot, and from then on
      [add] accrues distinct-creator descendant sets — amortized O(1)
      per (ancestor, new creator) — replacing the per-query descendant
      BFS. A snapshot nobody asks about never pays for it;
    - {!below} answers multi-hash ancestry closures with one traversal.

    {!ancestors}, {!descendants} and {!Oracle} remain full traversals:
    fine for cold paths and tests, banned from hot paths by the
    [no-full-scan-hot-path] lint rule (DESIGN.md §7).

    Storage offloading (§IV-I) is supported by {!prune}: a pruned block's
    body is dropped but its hash and height are remembered as {e archived},
    so children can still be attached and ancestry queries report where
    knowledge ends. *)

type t

type add_error =
  | Duplicate
  | Missing_parents of Hash_id.Set.t
  | Second_genesis  (** a parentless block when a genesis already exists *)

val empty : t
val add : t -> Block.t -> (t, add_error) result
val mem : t -> Hash_id.t -> bool
val find : t -> Hash_id.t -> Block.t option
val cardinal : t -> int
(** Number of resident (non-pruned) blocks. *)

val genesis : t -> Block.t option
val frontier : t -> Hash_id.Set.t
val level_frontier : t -> int -> Hash_id.Set.t
(** [level_frontier t n] for [n >= 1]: the frontier plus every resident
    ancestor within [n - 1] parent steps (the paper's L(n)); pruned
    parents are skipped. Stops at the fixpoint, so any [n] costs at most
    one pass over the DAG.
    @raise Invalid_argument if [n < 1]. *)

val parents : t -> Hash_id.t -> Hash_id.t list
val children : t -> Hash_id.t -> Hash_id.Set.t
val height : t -> Hash_id.t -> int option
(** Genesis has height 0; otherwise 1 + max parent height. Known for
    archived hashes too. *)

val max_height : t -> int
(** Highest height among resident and archived blocks — O(1), cached. *)

val missing_parents : t -> Block.t -> Hash_id.Set.t
(** Parents neither resident nor archived. *)

(** {1 Reachability} *)

val ancestors : t -> Hash_id.t -> Hash_id.Set.t
(** Proper ancestors reachable through resident blocks (archived ancestry
    is cut off at the archived hash, which is included). Full traversal —
    use {!below} on hot paths. *)

val descendants : t -> Hash_id.t -> Hash_id.Set.t
(** Proper descendants reachable through resident blocks (an archived
    hash is included where reached but not expanded, mirroring
    {!ancestors}). Full traversal — witness polling reads
    {!witness_set} instead. *)

val is_ancestor : t -> ancestor:Hash_id.t -> descendant:Hash_id.t -> bool

val below : t -> Hash_id.t list -> Hash_id.Set.t
(** [below t hs] is the union over the known (resident or archived)
    hashes in [hs] of the hash itself plus its ancestors — the
    "everything below these tips" closure that offload and witness
    proofs need. One multi-source traversal regardless of
    [List.length hs]. *)

(** {1 Heights: the digest strategy's view} *)

val fold_heights : t -> lo:int -> hi:int -> ('a -> Hash_id.t -> 'a) -> 'a -> 'a
(** Folds over every known (resident and archived) hash whose height is
    in [lo..hi], lowest height first and each height in
    {!Hash_id.compare} order. It visits only the heights present, so its
    cost does not grow with [hi - lo]. *)

val range_digest : t -> lo:int -> hi:int -> string
(** SHA-256 of the raw hashes {!fold_heights} visits, concatenated in
    that order. The digest over every height ([lo <= 0] and
    [hi >= max_height]) is memoized on the snapshot until {!add} or
    {!prune} makes a new one, so a replica whose DAG has not moved since
    its last session answers an in-sync peer without hashing. *)

(** {1 Canonical order} *)

val topo_order : t -> Block.t list
(** Canonical topological order: parents before children; ties broken by
    (timestamp, hash), so every replica with the same blocks lists them
    identically. Pruned blocks are absent. Served from the incremental
    index — amortized O(1) after the first query on a given state. *)

val topo_seq : t -> Block.t Seq.t
(** {!topo_order} as an allocation-light sequence over the cached order —
    for callers that filter or early-exit instead of keeping the list. *)

val blocks : t -> Block.t list
(** All resident blocks, unordered guarantees beyond determinism. *)

val blocks_seq : t -> Block.t Seq.t
(** {!blocks} without materializing the list (deterministic hash order). *)

val branch_width : t -> int
(** [|frontier|] — 1 when the chain is effectively linear (Fig. 1). *)

(** {1 Witness index} *)

val witness_set : t -> Hash_id.t -> Hash_id.Set.t
(** Distinct creators of proper descendants of the block, excluding the
    block's own creator; empty if the hash is not resident. O(result)
    from the incremental index, once built: the first query on a
    snapshot that has never been pruned builds it from the resident
    blocks, in time linear in the (block, witness) pairs.

    The index is {e monotone}: a creator stays recorded even if the
    descendant blocks that witnessed it are later pruned — a §IV-H
    storage proof is evidence, not a live property of the resident
    graph. On a prune-free DAG this equals the descendant-BFS oracle
    ({!Witness.oracle_witnesses}); after pruning it is a superset. *)

val witness_count : t -> Hash_id.t -> int

(** {1 Pruning} *)

val prune : t -> Hash_id.t -> t
(** Drop the block body, remember hash+height as archived. No-op if the
    hash is not resident. Pruning the genesis or a frontier block is
    refused (they anchor validation); @raise Invalid_argument then.

    Index soundness: heights, height buckets and [max_height] are
    retained, the witness index is built
    first if it was not, then the block's own witness entry is dropped
    (its ancestors keep theirs — see {!witness_set}), and the cached
    canonical order is invalidated (removing a vertex can legitimately
    reorder its children), to be rebuilt once on the next query. *)

val is_archived : t -> Hash_id.t -> bool
val archived_hashes : t -> Hash_id.Set.t
val archived_count : t -> int
val byte_size : t -> int
(** Total encoded size of resident blocks — the storage metric for §IV-I
    experiments. *)

(** {1 Oracles}

    Reference recomputations of the incrementally maintained indices.
    Test/bench use only: qcheck equivalence suites pin the indices to
    these, and the [no-full-scan-hot-path] lint rule keeps them (and the
    raw traversals above) out of the gossip and reconciliation layers. *)

module Oracle : sig
  val topo_order : t -> Block.t list
  (** Fresh Kahn recomputation of the canonical order. *)

  val level_frontier : t -> int -> Hash_id.Set.t
  (** The paper's L(n) = L(n-1) ∪ parents(L(n-1)), refolding the whole
      set [n - 1] times (no fixpoint stop). *)

  val below : t -> Hash_id.t list -> Hash_id.Set.t
  (** Per-hash [ancestors] unions — the pre-index reply closure. *)
end

(** {1 Persistence}

    A replica can be flushed to stable storage and reloaded: resident
    blocks travel in topological order (so reload needs no buffering)
    and archived hashes travel with their heights. Decoding re-inserts
    through {!add}, which rebuilds every index but the witness index,
    left to its first query. *)

val encode : Buffer.t -> t -> unit
val decode : Wire.cursor -> t
(** @raise Wire.Malformed on corrupt input (including a block set that is
    not parent-closed, or an archived hash listed twice). *)

val to_string : t -> string
val of_string : string -> t option

val pp_dot : Format.formatter -> t -> unit
(** Graphviz rendering of the DAG (edges child → parent, Fig. 1 style):
    nodes labelled with short hash, creator, and transaction count;
    frontier blocks outlined. *)
