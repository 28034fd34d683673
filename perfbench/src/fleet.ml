(* fleet-sim: the paper's partition scenario in the deterministic
   simulator, at fleet scale. One run replays instances 0, 1, 2, ... of
   a seeded scenario until the time budget is spent; each instance is a
   grid of peers (multi-hop), split into two halves from the start,
   appending on a seeded schedule, then healed and run until every
   honest replica is equal. *)

open Vegvisir
open Vegvisir_net
module Obs = Vegvisir_obs

type params = {
  side : int;  (** peers per grid side *)
  appends : int;  (** blocks appended per instance, all before the heal *)
  heal_ms : float;  (** simulated time of the heal *)
  horizon_ms : float;  (** an instance not converged by then fails *)
}

type instance = {
  build_s : float;
  run_s : float;  (** wall time of the simulation, build excluded *)
  cpu_s : float;
  deliveries : int;  (** one block reaching one replica, creators excluded *)
  bytes : int;
  blocks_received : int;
  redundant : int;
  rounds : int;
  sessions_completed : int;
  sessions_aborted : int;
  session_p50_ms : float;
  session_p99_ms : float;
      (** percentiles of the simulated durations of this instance's
          completed sessions (kept per instance, so a run's memory does
          not grow with the number of instances it fits) *)
  lag_s : float;  (** simulated time from the heal to convergence *)
  msgs_sent : int;
  msgs_delivered : int;
  msgs_dropped : int;
  obs_events : int;
  gc_major : int;
  ok : bool;
}

(* Lossless links keep every session completing (a lost frame would
   abort sessions and make success_ratio a property of the loss draw);
   latency, bandwidth and jitter stay the radio defaults. *)
let link = Link.make ~loss:0. ()

(* Convergence is tested every [check_ms] of simulated time, so
   convergence_lag_s has this resolution. *)
let check_ms = 100.

let topology p = Topology.grid ~n:(p.side * p.side) ~spacing:10. ~range:10.5

let groups p = Array.init (p.side * p.side) (fun i -> if i mod p.side < p.side / 2 then 0 else 1)

let subseed ~seed k = Int64.of_int ((seed * 10_007) + k)

let build ?tap ~seed ~k p =
  Scenario.build ~seed:(subseed ~seed k) ~link ~mode:Reconcile.Digest ?tap
    ~init_crdts:[ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset Vegvisir_crdt.Value.T_string) ]
    ~topo:(topology p) ()

(* The append schedule: (simulated time, peer), sorted, all before the
   heal. *)
let schedule ~seed ~k p =
  let rng = Random.State.make [| seed; k; 0xf1ee7 |] in
  let n = p.side * p.side in
  List.init p.appends (fun _ ->
      (Random.State.float rng (p.heal_ms *. 0.9), Random.State.int rng n))
  |> List.sort compare

let instance ?tap ?(sink = Obs.Sink.null) ~seed ~k p =
  let t0 = Unix.gettimeofday () in
  let fleet = build ?tap ~seed ~k p in
  let build_s = Unix.gettimeofday () -. t0 in
  let sessions = ref [] and events = ref 0 in
  Obs.Context.attach fleet.Scenario.obs
    (Obs.Sink.make (fun ~ts ev ->
         incr events;
         Obs.Sink.emit sink ~ts ev;
         match ev with
         | Obs.Event.Session_completed { duration_ms; _ } -> sessions := duration_ms :: !sessions
         | _ -> ()));
  let g = fleet.Scenario.gossip and net = fleet.Scenario.net in
  let n = Gossip.size g in
  let cpu0 = Daemon.self_cpu_s () and w0 = Unix.gettimeofday () in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  Simnet.set_partition net (Some (groups p));
  let created =
    List.filter_map
      (fun (at, peer) ->
        Scenario.run fleet ~until_ms:at;
        let tx =
          Transaction.make ~crdt:"log" ~op:"add"
            [ Vegvisir_crdt.Value.String (Printf.sprintf "i%d-p%d-%.3f" k peer at) ]
        in
        match Gossip.append g peer [ tx ] with Ok b -> Some b.Block.hash | Error _ -> None)
      (schedule ~seed ~k p)
  in
  Scenario.run fleet ~until_ms:p.heal_ms;
  Simnet.set_partition net None;
  let rec settle t =
    if Gossip.honest_converged g then Some (t -. p.heal_ms)
    else if t >= p.horizon_ms then None
    else begin
      let t = t +. check_ms in
      Scenario.run fleet ~until_ms:t;
      settle t
    end
  in
  let lag = settle p.heal_ms in
  let run_s = Unix.gettimeofday () -. w0 and cpu_s = Daemon.self_cpu_s () -. cpu0 in
  let held = ref 0 in
  for i = 0 to n - 1 do
    held := !held + Dag.cardinal (Node.dag (Gossip.node g i)) - 1
  done;
  let st = Gossip.reconcile_stats g in
  let everywhere h = Gossip.coverage g h = n in
  {
    build_s;
    run_s;
    cpu_s;
    deliveries = !held - List.length created;
    bytes = st.Reconcile.bytes_sent + st.Reconcile.bytes_received;
    blocks_received = st.Reconcile.blocks_received;
    redundant = st.Reconcile.redundant_blocks;
    rounds = st.Reconcile.rounds;
    sessions_completed = Gossip.sessions_completed g;
    sessions_aborted = Gossip.sessions_aborted g;
    session_p50_ms = Option.value ~default:Float.nan (Stats.percentile !sessions 50.);
    session_p99_ms = Option.value ~default:Float.nan (Stats.percentile !sessions 99.);
    lag_s = (match lag with Some l -> l /. 1000. | None -> Float.nan);
    msgs_sent = Simnet.messages_sent net;
    msgs_delivered = Simnet.messages_delivered net;
    msgs_dropped = Simnet.messages_dropped net;
    obs_events = !events;
    gc_major = (Gc.quick_stat ()).Gc.major_collections - gc0;
    ok =
      Option.is_some lag
      && List.length created = p.appends
      && List.for_all everywhere created;
  }

(* Instances until [seconds] of wall time are spent (at least two). *)
let run ~seed ~seconds p =
  let start = Unix.gettimeofday () in
  let rec go k acc =
    if k >= 2 && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else go (k + 1) (instance ~seed ~k p :: acc)
  in
  go 0 []
