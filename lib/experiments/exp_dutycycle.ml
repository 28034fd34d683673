open Vegvisir_net
module V = Vegvisir

let n = 8

let run_duty ~scale ~obs ~awake_fraction =
  let ms x = x *. scale in
  let topo = Topology.clique ~n in
  let fleet =
    Scenario.build ~seed:111L ~topo ~interval_ms:(ms 700.)
      ~stale_after_ms:(ms 2_000.) ~obs
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  let g = fleet.Scenario.gossip in
  let net = fleet.Scenario.net in
  if awake_fraction < 1. then
    for i = 0 to n - 1 do
      Simnet.set_duty_cycle net ~node:i ~period_ms:(ms 4_000.) ~awake_fraction
    done;
  (* Per-row health monitor: how long after the last append the fleet
     converges, and the redundant share of deliveries. *)
  let monitor =
    Vegvisir_obs.Monitor.create ~nodes:(List.init n string_of_int) ()
  in
  let monitor_sink = Vegvisir_obs.Monitor.sink monitor in
  Vegvisir_obs.Context.attach obs monitor_sink;
  let arrivals = Workload.track_arrivals obs in
  let hashes = ref [] in
  let appended = ref 0 in
  Workload.drive fleet ~until_ms:(ms 100_000.) ~step_ms:(ms 5_000.) (fun t ->
      if !appended < 12 then begin
        let i = !appended mod n in
        (* Devices wake to record their own observations even if the radio
           sleeps; the block spreads at the next rendezvous. *)
        match
          V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log" ~op:"add"
            [ Vegvisir_crdt.Value.String (Printf.sprintf "d-%d-%.0f" i t) ]
        with
        | Error _ -> ()
        | Ok tx -> begin
          match Gossip.append g i [ tx ] with
          | Ok b ->
            incr appended;
            hashes := b.V.Block.hash :: !hashes;
            if !appended = 12 then Vegvisir_obs.Monitor.mark monitor ~ts:t
          | Error _ -> ()
        end
      end);
  (* Run the tail until full dissemination (capped). *)
  let deadline = Simnet.now net +. ms 1_200_000. in
  let all_covered () =
    List.for_all (fun h -> Gossip.coverage g h = n) !hashes
  in
  while (not (all_covered ())) && Simnet.now net < deadline do
    Scenario.run fleet ~until_ms:(Simnet.now net +. ms 10_000.)
  done;
  Workload.untrack arrivals;
  let delays, missing = Workload.delays arrivals ~peers:n ~scale !hashes in
  let energy = ref 0. in
  for i = 0 to n - 1 do
    energy := !energy +. Energy.total Energy.default_costs (Simnet.meter net i)
  done;
  let pairs = List.length delays + missing in
  Vegvisir_obs.Context.detach obs monitor_sink;
  let conv_lag =
    match Vegvisir_obs.Monitor.last_lag monitor with
    | Some lag -> Report.ff ~decimals:1 (lag /. scale /. 1000.)
    | None -> "-"
  in
  let useful = Vegvisir_obs.Monitor.gossip_useful monitor in
  let redundant = Vegvisir_obs.Monitor.gossip_redundant monitor in
  [
    Report.fpct awake_fraction;
    Report.ff ~decimals:1 (Metrics.mean_of delays /. 1000.);
    Report.ff ~decimals:1 (Metrics.percentile_of delays 0.95 /. 1000.);
    Report.ff ~decimals:0 (!energy /. 1000. /. float_of_int n);
    Report.fpct (float_of_int (pairs - missing) /. float_of_int (max 1 pairs));
    conv_lag;
    Report.fpct
      (float_of_int redundant /. float_of_int (max 1 (useful + redundant)));
  ]

let run ?(quick = false) () =
  let fractions = if quick then [ 1.0; 0.25 ] else [ 1.0; 0.5; 0.25; 0.1 ] in
  let scale = if quick then 0.35 else 1.0 in
  let obs = Vegvisir_obs.Context.create () in
  {
    Report.id = "E11";
    title = "Duty-cycled radios: energy vs staleness";
    claim =
      "sleeping radios cut energy roughly with the awake fraction while \
       opportunistic reconciliation still reaches everyone, at the cost \
       of propagation delay";
    header =
      [
        "awake"; "mean delay (s)"; "p95 (s)"; "mJ/peer"; "coverage";
        "conv lag (s)"; "redundancy";
      ];
    rows = List.map (fun f -> run_duty ~scale ~obs ~awake_fraction:f) fractions;
    notes =
      [
        "8-peer clique, 12 blocks, 4 s sleep period, randomized wake offsets \
         (fixed phases fail to rendezvous below ~25% duty)";
        "the energy floor below 25% is transmissions wasted on sleeping \
         peers - wake-schedule gossip would reclaim it";
        "tail runs until full dissemination (capped at 20 min simulated)";
        "conv lag: last append until every replica holds every block; \
         redundancy: share of gossip deliveries the receiver already held";
      ];
    registry =
      Vegvisir_obs.Registry.aggregate
        (Vegvisir_obs.Registry.snapshot (Vegvisir_obs.Context.registry obs));
  }
