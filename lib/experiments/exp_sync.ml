open Vegvisir_net
module V = Vegvisir

(* One fleet per mode so the sweep's cells are fully independent: same
   topology, same seed, same append schedule — the only variable is the
   sync strategy. *)
let run_one ~scale ~obs ~mode =
  let ms x = x *. scale in
  let n = 8 in
  let topo = Topology.clique ~n in
  let fleet =
    Scenario.build ~seed:43L ~topo ~mode
      ~interval_ms:(ms 800.) ~stale_after_ms:(ms 2_000.)
      ~session_timeout_ms:(ms 20_000.) ~obs
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  let g = fleet.Scenario.gossip in
  let monitor =
    Vegvisir_obs.Monitor.create ~nodes:(List.init n string_of_int) ()
  in
  let monitor_sink = Vegvisir_obs.Monitor.sink monitor in
  Vegvisir_obs.Context.attach obs monitor_sink;
  (* Deterministic staggered appends: peer i speaks at 5 s + 2.5 s * i,
     then the fleet gossips until well past convergence. *)
  let born = Array.make n false in
  let unborn = ref n in
  Workload.drive fleet ~until_ms:(ms 120_000.) ~step_ms:(ms 1_000.) (fun t ->
      Array.iteri
        (fun i b ->
          if (not b) && t >= ms (5_000. +. (2_500. *. float_of_int i)) then begin
            born.(i) <- true;
            decr unborn;
            (match
               V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log" ~op:"add"
                 [ Vegvisir_crdt.Value.String (Printf.sprintf "sync-%d" i) ]
             with
            | Error _ -> ()
            | Ok tx -> ignore (Gossip.append g i [ tx ]));
            if !unborn = 0 then Vegvisir_obs.Monitor.mark monitor ~ts:t
          end)
        born);
  Vegvisir_obs.Context.detach obs monitor_sink;
  let useful = Vegvisir_obs.Monitor.gossip_useful monitor in
  let redundant = Vegvisir_obs.Monitor.gossip_redundant monitor in
  let redundancy =
    Report.fpct
      (float_of_int redundant /. float_of_int (max 1 (useful + redundant)))
  in
  let conv_lag =
    match Vegvisir_obs.Monitor.last_lag monitor with
    | Some lag -> Report.ff ~decimals:1 (lag /. scale /. 1000.)
    | None -> "-"
  in
  let stats = Gossip.reconcile_stats g in
  let converged = Gossip.honest_converged g in
  [
    V.Reconcile.Mode.to_string mode;
    (if converged then "yes" else "NO");
    Report.fi useful;
    Report.fi redundant;
    redundancy;
    conv_lag;
    Report.fi stats.V.Reconcile.rounds;
    Report.fi (stats.V.Reconcile.bytes_sent + stats.V.Reconcile.bytes_received);
  ]

let run ?(quick = false) () =
  let scale = if quick then 0.3 else 1.0 in
  let obs = Vegvisir_obs.Context.create () in
  let rows = List.map (fun mode -> run_one ~scale ~obs ~mode) V.Reconcile.Mode.all in
  {
    Report.id = "E12";
    title = "Sync-strategy sweep: redundancy vs convergence";
    claim =
      "set reconciliation (digest narrowing) converges as fast as naive \
       frontier-escalation while driving redundant block transfer from \
       ~95% to single digits";
    header =
      [
        "mode"; "converged"; "useful"; "redundant"; "redundancy";
        "conv lag (s)"; "rounds"; "session bytes";
      ];
    rows;
    notes =
      [
        "clique-8, gossip every 0.8 s, one staggered append per peer, same \
         seed in every cell";
        "redundancy: share of gossip deliveries the receiver already held; \
         session bytes: initiator-side bytes over all completed sessions";
      ];
    registry =
      Vegvisir_obs.Registry.aggregate
        (Vegvisir_obs.Registry.snapshot (Vegvisir_obs.Context.registry obs));
  }
