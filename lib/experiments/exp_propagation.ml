open Vegvisir_net
module V = Vegvisir

let run_one ~scale ~obs ~topo_name ~topo ~loss =
  let ms x = x *. scale in
  let n = Topology.size topo in
  let link = Link.make ~loss () in
  let fleet =
    Scenario.build ~seed:21L ~link ~topo ~interval_ms:(ms 800.)
      ~stale_after_ms:(ms 2_000.) ~session_timeout_ms:(ms 20_000.) ~obs
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  let g = fleet.Scenario.gossip in
  (* Per-row health monitor: convergence lag from the last append, and
     the useful/redundant split of the row's gossip deliveries. *)
  let monitor =
    Vegvisir_obs.Monitor.create ~nodes:(List.init n string_of_int) ()
  in
  let monitor_sink = Vegvisir_obs.Monitor.sink monitor in
  Vegvisir_obs.Context.attach obs monitor_sink;
  let arrivals = Workload.track_arrivals obs in
  let rng = Vegvisir_crypto.Rng.create 77L in
  let birth_due =
    Array.init n (fun _ -> ms 5_000. +. Vegvisir_crypto.Rng.float rng *. ms 20_000.)
  in
  let born = Array.make n false in
  let unborn = ref n in
  let hashes = ref [] in
  Workload.drive fleet ~until_ms:(ms 240_000.) ~step_ms:(ms 1_000.) (fun t ->
      Array.iteri
        (fun i due ->
          if (not born.(i)) && t >= due then begin
            born.(i) <- true;
            decr unborn;
            (match
               V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log"
                 ~op:"add"
                 [ Vegvisir_crdt.Value.String (Printf.sprintf "prop-%d" i) ]
             with
            | Error _ -> ()
            | Ok tx -> begin
              match Gossip.append g i [ tx ] with
              | Ok b -> hashes := b.V.Block.hash :: !hashes
              | Error _ -> ()
            end);
            if !unborn = 0 then Vegvisir_obs.Monitor.mark monitor ~ts:t
          end)
        birth_due);
  Vegvisir_obs.Context.detach obs monitor_sink;
  Workload.untrack arrivals;
  let delays, missing = Workload.delays arrivals ~peers:n ~scale !hashes in
  let pairs = List.length delays + missing in
  let coverage = float_of_int (pairs - missing) /. float_of_int (max 1 pairs) in
  let conv_lag =
    match Vegvisir_obs.Monitor.last_lag monitor with
    | Some lag -> Report.ff ~decimals:1 (lag /. scale /. 1000.)
    | None -> "-"
  in
  let useful = Vegvisir_obs.Monitor.gossip_useful monitor in
  let redundant = Vegvisir_obs.Monitor.gossip_redundant monitor in
  let redundancy =
    Report.fpct (float_of_int redundant /. float_of_int (max 1 (useful + redundant)))
  in
  [
    topo_name;
    Report.fi n;
    Report.fpct loss;
    Report.ff ~decimals:1 (Metrics.mean_of delays /. 1000.);
    Report.ff ~decimals:1 (Metrics.percentile_of delays 0.95 /. 1000.);
    Report.fpct coverage;
    conv_lag;
    redundancy;
  ]

let run ?(quick = false) () =
  let scale = if quick then 0.3 else 1.0 in
  (* One shared observability context across every row's fleet: the
     registry below aggregates the whole experiment's telemetry. *)
  let obs = Vegvisir_obs.Context.create () in
  let losses = if quick then [ 0.0; 0.2 ] else [ 0.0; 0.05; 0.2; 0.4 ] in
  let topos =
    [
      ("clique", fun () -> Topology.clique ~n:16);
      ("grid4x4", fun () -> Topology.grid ~n:16 ~spacing:10. ~range:15.);
      ("line", fun () -> Topology.line ~n:8 ~spacing:10. ~range:12.);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, mk) ->
        List.map
          (fun loss -> run_one ~scale ~obs ~topo_name:name ~topo:(mk ()) ~loss)
          losses)
      topos
  in
  {
    Report.id = "E5";
    title = "Propagation delay and transitivity";
    claim =
      "every block eventually reaches every correct peer; delay grows with \
       diameter and loss but coverage stays 100%";
    header =
      [
        "topology"; "peers"; "loss"; "mean delay (s)"; "p95 (s)"; "coverage";
        "conv lag (s)"; "redundancy";
      ];
    rows;
    notes =
      [
        "one block per peer, gossip every 0.8 s, measured to all peers";
        "conv lag: last append until every replica holds every block; \
         redundancy: share of gossip deliveries the receiver already held";
      ];
    registry =
      Vegvisir_obs.Registry.aggregate
        (Vegvisir_obs.Registry.snapshot (Vegvisir_obs.Context.registry obs));
  }
