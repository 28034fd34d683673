(** Live reconciliation between two running `vegvisir-cli` nodes over a
    framed TCP connection ({!Unix_compat}).

    An adapter over {!Event_loop}: each call runs one loop carrying one
    exchange session, drives it until that session's outcome lands, and
    tears the loop down. The loop is the socket host — it moves the
    {!Vegvisir_engine.Peer_engine}'s [Send] frames, applies [Deliver]
    effects to the file-backed node and turns [Set_timer] into timer
    wheel deadlines — so this module only keeps the "one exchange, one
    call" surface, running byte for byte what a daemon session runs.

    One exchange is symmetric pull-then-serve: the client pulls the
    server's missing blocks, hands the turn over with an empty frame,
    then answers while the server pulls back. After a complete exchange
    both replicas hold the union of the two DAGs (and both directories
    are saved). *)

type report = {
  pulled : Vegvisir.Reconcile.stats;  (** our own pull session *)
  delivered : int;  (** blocks applied to the local replica *)
  served : int;  (** remote requests we answered *)
}

val serve :
  store:Node_store.t ->
  ?mode:Vegvisir.Reconcile.mode ->
  ?accept_timeout_s:float ->
  port:int ->
  unit ->
  (report, string) result
(** Listen on loopback [port], accept one peer, answer its pull, pull
    back, save, and return. Blocks until a peer connects (bounded by
    [accept_timeout_s] when given). *)

val pull :
  store:Node_store.t ->
  ?mode:Vegvisir.Reconcile.mode ->
  ?timeout_s:float ->
  host:string ->
  port:int ->
  unit ->
  (report, string) result
(** Connect to a serving peer, pull, hand the turn over, answer its pull
    back, save, and return. [timeout_s] bounds the TCP connect, so a
    dead or blackholed peer fails fast instead of wedging the caller. *)

(** {1 Connection-level drivers}

    For hosts that manage the socket themselves (tests bind an ephemeral
    port first, then fork). *)

val serve_conn :
  store:Node_store.t ->
  ?mode:Vegvisir.Reconcile.mode ->
  Unix_compat.conn ->
  (report, string) result

val pull_conn :
  store:Node_store.t ->
  ?mode:Vegvisir.Reconcile.mode ->
  Unix_compat.conn ->
  (report, string) result
