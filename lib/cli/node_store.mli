(** File-backed Vegvisir nodes: the persistence layer behind the
    `vegvisir-cli` tool.

    A {e node directory} holds:
    - [chain.dag] — the DAG replica ({!Vegvisir.Dag.to_string});
    - [key] — the node's MSS key state: seed, tree height, and the count
      of consumed one-time leaves (rewinding a hash-based key would be
      catastrophic, so the count is persisted on every save);
    - [cert] and [ca.cert] — the node's certificate and the chain
      owner's (CA) certificate.

    Application state is not stored: it is deterministically rebuilt from
    the DAG on load ({!Vegvisir.Csm.rebuild}).

    A block enters a store in one way per source: a block made here
    ({!init}'s genesis, {!append}, the blocks {!enroll} and {!rotate}
    create) is journaled [created], then saved; a block from another
    directory ({!sync}, {!recover}, and the pulls inside {!enroll} and
    {!rotate}) goes through {!deliver}; {!load} re-admits the store's
    own [chain.dag], silently, and keeps what it refuses in [refused],
    so that no save erases a stored block. *)

type key
(** The node's signer with the height and seed that re-derive it. *)

type t = {
  dir : string;
  node : Vegvisir.Node.t;
  ca_cert : Vegvisir.Certificate.t;
  key : key;  (** this handle's own signer: {!save} persists its position *)
  refused : Vegvisir.Block.t list;
      (** stored blocks that {!load}'s intake did not make resident, in
          canonical order: {!save} writes them back *)
}

val init :
  dir:string ->
  seed:string ->
  ?height:int ->
  ?role:string ->
  ?init_crdts:(string * Vegvisir_crdt.Schema.spec) list ->
  unit ->
  (t, string) result
(** Create a new blockchain: the directory's key becomes the owner/CA,
    a genesis block is created (enrolling the owner and any initial
    CRDTs) and everything is saved. Fails if [dir] already holds a node. *)

val enroll :
  ca_dir:string ->
  dir:string ->
  seed:string ->
  ?height:int ->
  ?role:string ->
  unit ->
  (t, string) result
(** CA-side enrolment of a new member: creates the member's key in [dir],
    issues its certificate, appends the enrolment block to the CA's
    chain (journaled [created], then saved), and seeds the member's
    replica with a {!sync} from the CA, which saves the member. *)

val load : dir:string -> (t, string) result
(** Reload a directory, re-admitting every stored block through the
    node's intake. The clock it checks them against is no earlier than
    the newest stored timestamp, so a block appended while the clock ran
    ahead is kept; signatures, parents and membership are checked as on
    any intake. A stored block the intake does not make resident is not
    in the replica, but stays in [refused]. *)

val save : t -> (unit, string) result
(** Write the directory: [chain.dag] holds the resident DAG plus
    [refused], so a store with nothing refused writes exactly its
    replica. *)

val append :
  t ->
  crdt:string ->
  op:string ->
  Vegvisir_crdt.Value.t list ->
  (Vegvisir.Block.t, string) result
(** Prepare, append, journal [created], and save. The block timestamp
    is the wall clock. *)

val deliver :
  t ->
  journal:(Vegvisir_obs.Event.t list -> unit) ->
  peer:string ->
  Vegvisir.Block.t list ->
  Vegvisir.Block.t list
(** Admit a delivery from [peer] (its telemetry name) through
    {!Vegvisir.Node.intake}, stamped with the host clock plus the
    validation skew allowance, and hand [journal] its events from
    {!Vegvisir_obs.Engine_events}: [Received] for every delivered block
    before the intake, then [Validated]/[Delivered] (and [Witnessed] for
    an empty block) for each block made resident. Returns the blocks
    made resident, in commit order. *)

val sync :
  t -> from:t -> mode:Vegvisir.Reconcile.mode -> (Vegvisir.Reconcile.stats, string) result
(** Pull missing blocks from another node directory ({!deliver} of what
    {!Vegvisir.Reconcile.pull} delivers), journal [Sync_completed] with
    the count made resident, and save the target; [Error] if the save
    fails. *)

val recover :
  t ->
  from:t ->
  ?below:Vegvisir.Hash_id.t list ->
  unit ->
  (int * int, string) result
(** §IV-I batch ancestry recovery: take from [from]'s replica every
    block in the ancestry closure of [below] ({!Vegvisir.Dag.below}) —
    default: [from]'s whole frontier — and {!deliver} the ones missing
    locally, in canonical topological order. Records a
    [Recovery_completed] event with the count made resident, then
    saves. Returns [(served, restored)]: closure size vs. blocks made
    resident. *)

val rotate :
  ca_dir:string -> dir:string -> seed:string -> ?height:int -> unit ->
  (t, string) result
(** Rotate the node's key before its one-time leaves run out: the CA (in
    [ca_dir]) issues a certificate for a fresh key derived from [seed];
    the node appends a rotation block (enrol new, self-revoke old) signed
    with the old key, journals it [created] and persists with the new
    key; the CA then pulls it with {!sync}. Refused, before anything is
    signed or written, when [ca_dir] and [dir] hold the same node. *)

val remaining_signatures : t -> int option
(** One-time leaves left on the current key. *)

val verify : t -> (int, string) result
(** Replay the store's [chain.dag] (the file, not the loaded replica) in
    canonical topological order through a fresh node's
    {!Vegvisir.Node.receive}, against the clock {!load} uses: every block
    must be [Accepted] by the §IV-E checks against its ancestors.
    Returns the number of blocks; [Error] names the first block with
    another result, and the result, so a stored block that {!load}
    dropped is reported here. *)

val summary : t -> string
(** Human-readable status: block counts, frontier, CRDT contents. *)

val export_dot : t -> string

(** {1 Telemetry}

    Every node directory keeps an append-only [trace.jsonl] of
    {!Vegvisir_obs.Event} records, timestamped with the host clock.
    Store operations record themselves (the block events as above, plus
    [Store_*], [Sync_*] and [Recovery_completed]); the event loop
    ({!Event_loop}) records block and session events. The
    [vegvisir-cli stats] and [vegvisir-cli trace] commands replay these
    files — merging two synced directories' files reconstructs a block's
    full cross-node causal timeline. *)

val node_name : t -> string
(** This node's telemetry identity: {!Vegvisir.Hash_id.short} of its
    user id. *)

val trace_path : t -> string

val record : t -> Vegvisir_obs.Event.t -> unit
(** Append one event to the directory's [trace.jsonl], stamped with the
    current host time. Best-effort: write failures are swallowed so
    telemetry can never break the underlying operation. *)

val record_all : t -> Vegvisir_obs.Event.t list -> unit

val buffer_telemetry : t -> bool -> unit
(** [buffer_telemetry t true] switches the directory's journal to
    buffered mode: {!record} accumulates encoded lines in memory instead
    of opening [trace.jsonl] once per event — what a long-lived daemon
    multiplexing dozens of sessions wants. Buffered lines reach disk on
    {!flush_trace} and on every {!save}. [buffer_telemetry t false]
    flushes and returns to write-through. *)

val flush_trace : t -> unit
(** Write any buffered journal lines to [trace.jsonl] now. No-op in
    write-through mode. *)

val load_trace : dir:string -> (float * Vegvisir_obs.Event.t) list
(** Decode a directory's [trace.jsonl]; [[]] if absent. Malformed lines
    are skipped. *)
