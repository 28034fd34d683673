open Vegvisir
module Rng = Vegvisir_crypto.Rng
module Peer_engine = Vegvisir_engine.Peer_engine
module Obs = Vegvisir_obs

let log_src = Logs.Src.create "vegvisir.gossip" ~doc:"Opportunistic gossip agent"

module Log = (val Logs.src_log log_src : Logs.LOG)

type behavior = Peer_engine.policy = Honest | Silent | Withholding

type peer = {
  node_ : Node.t;
  behavior_ : behavior;
  mutable engine : Peer_engine.t;
  mutable announced : (int * (string * string)) option;
      (* (generation, (trace, root)) of the last session this peer's
         engine announced a trace context for *)
}

type tap =
  peer:int ->
  now:float ->
  dag:Dag.t ->
  Peer_engine.input ->
  Peer_engine.effect_ list ->
  unit

type t = {
  net : Simnet.t;
  peers : peer array;
  interval_ms : float;
  tap : tap option;
  obs : Obs.Context.t;
  mutable total_stats : Reconcile.stats;
}

let create ~net ~nodes ?behaviors ~mode ~interval_ms ?(stale_after_ms = 5_000.)
    ?(session_timeout_ms = 30_000.) ?(trace_sample = 0.) ?tap ~obs () =
  let n = Array.length nodes in
  if Topology.size (Simnet.topo net) <> n then
    invalid_arg "Gossip.create: nodes/topology size mismatch";
  let behaviors =
    match behaviors with
    | None -> Array.make n Honest
    | Some b ->
      if Array.length b <> n then
        invalid_arg "Gossip.create: behaviors size mismatch";
      b
  in
  {
    net;
    peers =
      Array.init n (fun i ->
          {
            node_ = nodes.(i);
            behavior_ = behaviors.(i);
            engine =
              Peer_engine.create
                ~config:
                  {
                    Peer_engine.Config.policy = behaviors.(i);
                    mode;
                    (* A session with no recent progress retransmits before
                       it is abandoned; "recent" scales with the cadence. *)
                    stale_after_ms = max stale_after_ms (2. *. interval_ms);
                    session_timeout_ms;
                    trace_sample;
                  }
                ~user_id:(Node.user_id nodes.(i))
                ~dag:(Node.dag nodes.(i))
                ();
            announced = None;
          });
    interval_ms;
    tap;
    obs;
    total_stats = Reconcile.empty_stats;
  }

let node t i = t.peers.(i).node_
let behavior t i = t.peers.(i).behavior_
let size t = Array.length t.peers

let sim_ts t = Timestamp.of_ms (Int64.of_float (Simnet.now t.net))

(* Telemetry: node identities are the decimal peer index; timestamps are
   simulated milliseconds. Emission consumes no randomness and schedules
   nothing, so seeded runs are schedule-identical with or without sinks. *)
let emit t ev = Obs.Context.emit t.obs ~ts:(Simnet.now t.net) ev
let node_name i = string_of_int i

(* Blocks that entered peer [i]'s DAG, in commit order: each is
   journaled once, through the mapping every host shares. *)
let made_resident t i ?peer made =
  List.iter (emit t) (Obs.Engine_events.made_resident ~node:(node_name i) ?peer made)

(* Peer [i]'s node admits a delivery, from peer [src] when it came over
   the radio: every block is journaled received and charged a verify,
   then the node's batch intake reports what it made resident, blocks
   it drained from its transient buffer included. *)
let deliver t ?src i blocks =
  let meter = Simnet.meter t.net i in
  let n = List.length blocks in
  meter.Energy.verifies <- meter.Energy.verifies + n;
  meter.Energy.hashes <- meter.Energy.hashes + (2 * n);
  let peer = Option.map node_name src in
  List.iter (emit t) (Obs.Engine_events.received ~node:(node_name i) ?peer blocks);
  made_resident t i ?peer (Node.intake t.peers.(i).node_ ~now:(sim_ts t) blocks)

(* Replay one engine effect into the simulator. The replay order is the
   effect-list order, which mirrors the pre-refactor agent's direct call
   order exactly (timer before first request, stats before feeding), so a
   seeded run is schedule- and byte-identical to the welded-in original. *)
let apply_effect t i ~src (eff : Peer_engine.effect_) =
  match eff with
  | Peer_engine.Send { dst; bytes } -> Simnet.send t.net ~src:i ~dst bytes
  | Peer_engine.Set_timer { key; after_ms } ->
    Simnet.set_timer t.net ~node:i ~after:after_ms
      ~tag:(Peer_engine.tag_of_timer key)
  | Peer_engine.Deliver blocks -> deliver t ?src i blocks
  | Peer_engine.Session_done stats ->
    t.total_stats <- Reconcile.add_stats t.total_stats stats
  | Peer_engine.Trace ev -> begin
    let p = t.peers.(i) in
    let emit_all ?exchange () =
      List.iter (emit t)
        (Obs.Engine_events.of_event ~node:(node_name i) ~peer:node_name
           ?exchange ev)
    in
    match ev with
    | Peer_engine.Trace_context_sent { generation; trace; span; _ } ->
      (* Remember the announced context so this session's completion
         closes with an exchange span under it, as on a daemon. *)
      p.announced <- Some (generation, (trace, span));
      emit_all ()
    | Peer_engine.Session_completed { generation; _ } ->
      let exchange =
        match p.announced with
        | Some (g, ctx) when Int.equal g generation -> Some ctx
        | Some _ | None -> None
      in
      emit_all ?exchange ()
    | Peer_engine.Session_aborted { dst; reason; _ } ->
      emit_all ();
      Log.debug (fun m ->
          m "peer %d: abandoning %s session with %d" i
            (match reason with
            | Peer_engine.Stalled -> "stalled"
            | Peer_engine.Timed_out -> "timed-out")
            dst)
    | Peer_engine.Session_started _ | Peer_engine.Request_resent _
    | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
    | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_received _
    | Peer_engine.Request_suppressed _ | Peer_engine.Reply_ignored _
    | Peer_engine.Decode_failed _ ->
      emit_all ()
  end

let step t i input =
  let p = t.peers.(i) in
  let now = Simnet.now t.net in
  let dag = Node.dag p.node_ in
  let engine, effects = Peer_engine.handle p.engine ~now ~dag input in
  p.engine <- engine;
  (match t.tap with Some f -> f ~peer:i ~now ~dag input effects | None -> ());
  (* A Deliver effect only ever follows a reply from the session peer, so
     the message sender is the provenance of every delivered block. *)
  let src =
    match input with
    | Peer_engine.Message_received { from; _ } -> Some from
    | Peer_engine.Timer_fired _ | Peer_engine.Block_created _
    | Peer_engine.Tick _ ->
      None
  in
  List.iter (apply_effect t i ~src) effects

let on_message t ~me ~from payload =
  step t me (Peer_engine.Message_received { from; bytes = payload })

let gossip_round t i =
  let p = t.peers.(i) in
  let now = Simnet.now t.net in
  (* Draw a neighbor only when the engine will actually pull from one:
     the entropy stream must match the engine's session state exactly
     for seeded runs to replay (see Peer_engine.will_initiate). *)
  let peer =
    if Peer_engine.will_initiate p.engine ~now && Simnet.is_awake t.net i then
      match Topology.neighbors (Simnet.topo t.net) i with
      | [] -> None
      | neighbors -> Some (Rng.pick (Simnet.rng t.net) neighbors)
    else None
  in
  step t i (Peer_engine.Tick { peer })

let on_timer t ~me ~tag =
  match Peer_engine.timer_of_tag tag with
  | Some Peer_engine.Gossip_round ->
    gossip_round t me;
    Simnet.set_timer t.net ~node:me ~after:t.interval_ms ~tag
  | Some (Peer_engine.Session_timeout _ as key) ->
    step t me (Peer_engine.Timer_fired key)
  | None -> ()

let start t =
  Simnet.set_handlers t.net
    {
      Simnet.on_message = (fun ~me ~from payload -> on_message t ~me ~from payload);
      on_timer = (fun ~me ~tag -> on_timer t ~me ~tag);
    };
  (* Stagger the first rounds to avoid lock-step gossip. *)
  Array.iteri
    (fun i _ ->
      let offset = Rng.float (Simnet.rng t.net) *. t.interval_ms in
      Simnet.set_timer t.net ~node:i ~after:offset
        ~tag:(Peer_engine.tag_of_timer Peer_engine.Gossip_round))
    t.peers

let append t i ?location txs =
  let p = t.peers.(i) in
  match Node.append_drained p.node_ ~now:(sim_ts t) ?location txs with
  | Ok (b, drained) ->
    let meter = Simnet.meter t.net i in
    meter.Energy.signs <- meter.Energy.signs + 1;
    meter.Energy.hashes <- meter.Energy.hashes + 2;
    (* Creating an empty block is itself the act of witnessing its
       parents — the creator's own signature counts toward the quorum. *)
    List.iter (emit t) (Obs.Engine_events.created ~node:(node_name i) b);
    made_resident t i drained;
    step t i (Peer_engine.Block_created b);
    Ok b
  | Error e -> Error e

let witness t i = append t i []

let receive t i b =
  deliver t i [ b ];
  (* Externally injected blocks (genesis seeding) must also reach the
     engine's withholding serving view. *)
  if Dag.mem (Node.dag t.peers.(i).node_) b.Block.hash then
    step t i (Peer_engine.Block_created b)

let coverage t h =
  Array.fold_left
    (fun acc p -> if Dag.mem (Node.dag p.node_) h then acc + 1 else acc)
    0 t.peers

let honest_converged t =
  let honest =
    Array.to_list t.peers |> List.filter (fun p -> p.behavior_ = Honest)
  in
  match honest with
  | [] -> true
  | first :: rest ->
    List.for_all
      (fun p ->
        Hash_id.Set.equal
          (Dag.frontier (Node.dag p.node_))
          (Dag.frontier (Node.dag first.node_))
        && Csm.converged (Node.csm p.node_) (Node.csm first.node_))
      rest

let reconcile_stats t = t.total_stats
let obs t = t.obs

(* The bespoke counters of the pre-obs agent now live in the shared
   registry; the accessors stay so callers keep reading one place. *)
let registry t = Obs.Context.registry t.obs
let sessions_completed t = Obs.Registry.total (registry t) "session.completed"
let sessions_aborted t = Obs.Registry.total (registry t) "session.aborted"
