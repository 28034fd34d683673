(** Shared experiment plumbing: standard CRDT workloads and simulation
    drivers. *)

val log_spec : Vegvisir_crdt.Schema.spec
(** A grow-only set of strings — the paper's add-only request log H. *)

val add_entry : Vegvisir_net.Gossip.t -> int -> string -> bool
(** Append a one-transaction block adding a unique entry at peer [i];
    [false] if the append failed. *)

val drive :
  Vegvisir_net.Scenario.fleet ->
  until_ms:float ->
  step_ms:float ->
  (float -> unit) ->
  unit
(** Run the simulation in [step_ms] increments, invoking the callback with
    the current time after each increment (for workload generation and
    sampling). *)

val offline_pair :
  unit -> Vegvisir.Node.t * Vegvisir.Node.t * Vegvisir.Block.t
(** Two enrolled nodes sharing a genesis (with the standard log CRDT), no
    network — for pure reconciliation experiments. *)

val append_chain : Vegvisir.Node.t -> label:string -> n:int -> unit
(** Append [n] single-transaction blocks in sequence (a depth-[n] chain). *)

(** {1 Propagation delays} *)

type arrivals
(** When each block was born and first reached each peer, folded from a
    fleet's event stream: [Created] at the creator gives the birth (and
    the creator's arrival), [Delivered] gives every other peer's, each
    stamped with the simulated time it was emitted at. *)

val track_arrivals : Vegvisir_obs.Context.t -> arrivals
(** An empty table that records every event the context emits from now
    on, until {!untrack}. *)

val untrack : arrivals -> unit
(** Stop recording; the table keeps what it saw. *)

val birth : arrivals -> Vegvisir.Hash_id.t -> float option
val arrival : arrivals -> peer:int -> Vegvisir.Hash_id.t -> float option
(** When the block first entered the DAG of simulator peer [peer]
    (creation counts). *)

val delays :
  arrivals ->
  peers:int ->
  scale:float ->
  Vegvisir.Hash_id.t list ->
  float list * int
(** For each block, in list order, and each peer [0 .. peers - 1]: the
    delay from birth to arrival divided by [scale], prepended to the
    result list, or one more missing pair when the peer never got it.
    @raise Failure when a block has no birth. *)
