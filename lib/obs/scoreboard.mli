(** The per-peer gossip scoreboard — {!Monitor}'s live companion.

    A scoreboard consumes the same raw event stream (attach {!sink} to a
    {!Bus.t}, or feed {!observe} directly) but keys it by the {e far
    peer} of one node [me], maintaining per peer: a frontier-divergence
    estimate, useful-vs-redundant delivered blocks, exchange counts and
    failures, exchange latencies (from the engine's [duration_ms]
    session attribution) and a last-contact timestamp. The daemon's
    anti-entropy scheduler consults {!priority} to dial the
    most-diverged / longest-unseen peer first.

    The divergence estimate is stream-derived: the fold tracks the set
    of blocks [me] created or delivered since it began; a clean
    [Sync_completed] exchange with a peer records the current count as
    that peer's high-water mark, and its divergence is how many blocks
    arrived since — [0] right after a clean exchange, growing as other
    peers (or local appends) bring in blocks it has not been shown to
    have. A peer with no completed exchange is maximally diverged.

    Pure fold over [(ts, event)] pairs — no clock, no randomness, no
    I/O — so deterministic streams yield deterministic state and
    byte-stable {!report} / {!to_json} renderings. *)

type t

type row = {
  peer : string;
  divergence : int;  (** blocks held that this peer has not acked *)
  useful : int;  (** blocks it delivered that we kept *)
  redundant : int;  (** blocks it shipped that we already held *)
  exchanges : int;  (** clean exchanges completed *)
  failures : int;  (** engine sessions aborted (stalled / timed out) *)
  advertised : int;
      (** hashes it advertised (digest leaves) without shipping blocks *)
  last_contact : float option;  (** ts of the latest event naming it *)
  latencies : float list;
      (** most recent exchange latencies (ms), oldest first — a bounded
          window ({!max_latencies}), not the full history *)
}

val max_latencies : int
(** How many recent exchange latencies each row retains (the fold would
    otherwise grow without bound in a long-lived daemon). *)

val latency_buckets : float list
(** Bucket bounds (ms) used for the [peer.exchange_ms] histogram in
    {!export}. *)

val create : me:string -> unit -> t
(** Track the stream from [me]'s point of view: only events whose
    primary node is [me] count, and rows are keyed by their [peer]
    field (the daemon labels anti-entropy sessions ["host:port"]). *)

val sink : t -> Sink.t
val observe : t -> ts:float -> Event.t -> unit

(** {1 Readers} *)

val me : t -> string

val local_blocks : t -> int
(** Blocks [me] has created or delivered since the fold began — the
    reference point of every divergence estimate. *)

val rows : t -> row list
(** All known peers, sorted by label. *)

val row : t -> string -> row option

val priority : t -> string list -> string list
(** Order candidate peer labels for anti-entropy: most-diverged first,
    then longest-unseen (never-contacted counts as oldest), ties broken
    by label. Candidates without a scoreboard row sort as maximally
    diverged. Deterministic: same state and candidates, same order. *)

(** {1 Renderings} *)

val report : t -> string
(** Byte-stable text report (fixed line and field order, floats via
    {!Event.json_float}), one [peer] line per row. *)

val to_json : t -> string
(** Byte-stable JSON array of row objects, each opening with
    [{"peer":…,"divergence":…}]. *)

val export : t -> Registry.t -> unit
(** Project every row into [peer.*] gauges labelled by peer and the
    [peer.exchange_ms] histogram. Observes every recorded latency, so
    export into a fresh registry per scrape (as {!Health.export}). *)
