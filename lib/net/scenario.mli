(** Fleet construction: a ready-to-run set of Vegvisir peers.

    Builds the owner/CA (peer 0), issues certificates for every peer,
    creates a genesis block enrolling them all (plus any initial CRDTs),
    seeds every peer with the genesis, and wires the gossip agents to a
    simulated network. The examples, tests, and every experiment start
    from here. *)

type signer_kind =
  | Oracle  (** fast simulation signer, 64-byte (ECDSA-class) signatures *)
  | Oracle_sized of int
      (** simulation signer with a chosen signature size — the knob for
          the signature-size ablation (experiment E9) *)
  | Mss of int  (** real hash-based signatures with the given tree height *)

type fleet = {
  net : Simnet.t;
  gossip : Gossip.t;
  genesis : Vegvisir.Block.t;
  certs : Vegvisir.Certificate.t array;
  obs : Vegvisir_obs.Context.t;
      (** the fleet-wide observability context: radio, gossip agents and
          caller share one registry and one causal block trace *)
  mutable started : bool;  (** managed by {!run} *)
}

val build :
  ?seed:int64 ->
  ?link:Link.t ->
  ?behaviors:Gossip.behavior array ->
  ?mode:Vegvisir.Reconcile.mode ->
  ?interval_ms:float ->
  ?stale_after_ms:float ->
  ?session_timeout_ms:float ->
  ?trace_sample:float ->
  ?tap:Gossip.tap ->
  ?obs:Vegvisir_obs.Context.t ->
  ?signer:signer_kind ->
  ?role_of:(int -> string) ->
  ?init_crdts:(string * Vegvisir_crdt.Schema.spec) list ->
  topo:Topology.t ->
  unit ->
  fleet
(** Peer count comes from the topology. Default roles: peer 0 is ["ca"],
    others ["member"]. Gossip timers are {e not} started; call
    [Gossip.start fleet.gossip]. *)

val run : fleet -> until_ms:float -> unit
(** Start gossip (idempotent per fleet) and run the simulation. *)
