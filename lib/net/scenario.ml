open Vegvisir

type signer_kind = Oracle | Oracle_sized of int | Mss of int

type fleet = {
  net : Simnet.t;
  gossip : Gossip.t;
  genesis : Block.t;
  certs : Certificate.t array;
  obs : Vegvisir_obs.Context.t;
  mutable started : bool;
}

(* Fleet simulations model a compact (ECDSA-class, 64-byte) signature so
   that radio accounting reflects the paper's smartphone prototype; the
   hash-based sizes are exercised by the Mss kind and by the offline
   reconciliation experiments. *)
let make_signer kind i =
  match kind with
  | Oracle ->
    Signer.oracle ~signature_size:64 ~id:(Printf.sprintf "peer-%d" i) ()
  | Oracle_sized bytes ->
    Signer.oracle ~signature_size:bytes ~id:(Printf.sprintf "peer-%d" i) ()
  | Mss h -> Signer.mss ~height:h ~seed:(Printf.sprintf "peer-seed-%d" i) ()

let build ?(seed = 1L) ?(link = Link.default) ?behaviors
    ?(mode = Reconcile.Naive) ?(interval_ms = 1000.) ?stale_after_ms
    ?session_timeout_ms ?trace_sample ?tap ?obs ?(signer = Oracle) ?role_of
    ?(init_crdts = []) ~topo () =
  let n = Topology.size topo in
  if n = 0 then invalid_arg "Scenario.build: empty topology";
  let role_of =
    match role_of with
    | Some f -> f
    | None -> fun i -> if i = 0 then "ca" else "member"
  in
  let signers = Array.init n (make_signer signer) in
  let ca_cert = Certificate.self_signed ~signer:signers.(0) ~role:(role_of 0) in
  let certs =
    Array.init n (fun i ->
        if i = 0 then ca_cert
        else
          Certificate.issue ~ca:ca_cert ~ca_signer:signers.(0)
            ~subject:signers.(i) ~role:(role_of i))
  in
  let extra =
    List.map (fun (name, spec) -> Transaction.create_crdt ~name spec) init_crdts
    @ (match Array.to_list certs with
      | [] -> []
      | _ca :: others -> List.map Transaction.add_user others)
  in
  let genesis =
    Node.genesis_block ~signer:signers.(0) ~cert:ca_cert
      ~timestamp:(Timestamp.of_ms 0L) ~extra ()
  in
  let nodes =
    Array.init n (fun i -> Node.create ~signer:signers.(i) ~cert:certs.(i) ())
  in
  let net = Simnet.create ~topo ~link ~seed in
  (* One shared observability context for the whole fleet: the radio, the
     gossip agents and the caller all see the same registry and trace. *)
  let obs =
    match obs with Some o -> o | None -> Vegvisir_obs.Context.create ()
  in
  Simnet.set_obs net obs;
  let gossip =
    Gossip.create ~net ~nodes ?behaviors ~mode ~interval_ms ?stale_after_ms
      ?session_timeout_ms ?trace_sample ?tap ~obs ()
  in
  Array.iteri (fun i _ -> Gossip.receive gossip i genesis) nodes;
  { net; gossip; genesis; certs; obs; started = false }

let run fleet ~until_ms =
  if not fleet.started then begin
    Gossip.start fleet.gossip;
    fleet.started <- true
  end;
  Simnet.run_until fleet.net until_ms
