open Vegvisir_net
module V = Vegvisir
module Nakamoto = Vegvisir_baseline

let n = 8
let groups = Array.init n (fun i -> if i < n / 2 then 0 else 1)

let vegvisir_run ~scale =
  let ms x = x *. scale in
  let topo = Topology.clique ~n in
  let obs = Vegvisir_obs.Context.create () in
  let fleet =
    Scenario.build ~seed:11L ~topo ~obs
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  (* The heal below goes through Simnet.set_partition, whose
     Partition_changed {groups = None} event auto-marks the monitor —
     the resolved lag is the paper's heal-to-convergence time. *)
  let monitor =
    Vegvisir_obs.Monitor.create ~nodes:(List.init n string_of_int) ()
  in
  Vegvisir_obs.Context.attach obs (Vegvisir_obs.Monitor.sink monitor);
  let g = fleet.Scenario.gossip in
  let created = ref 0 and append_ok = ref 0 and append_all = ref 0 in
  let p_start = ms 10_000. and p_end = ms 70_000. in
  let appends_end = ms 80_000. and run_end = ms 200_000. in
  Workload.drive fleet ~until_ms:run_end ~step_ms:(ms 5_000.) (fun t ->
      let net = fleet.Scenario.net in
      if t >= p_start && t < p_start +. ms 5_000. then
        Simnet.set_partition net (Some groups);
      if t >= p_end && t < p_end +. ms 5_000. then Simnet.set_partition net None;
      if t <= appends_end then
        for i = 0 to n - 1 do
          incr append_all;
          if Workload.add_entry g i (Printf.sprintf "p-%d-%.0f" i t) then begin
            incr append_ok;
            incr created
          end
        done);
  (* Let gossip finish merging the two sides before counting survivors. *)
  let t = ref run_end in
  while
    (not (Gossip.honest_converged g)) && !t < run_end +. ms 400_000.
  do
    t := !t +. ms 20_000.;
    Scenario.run fleet ~until_ms:!t
  done;
  let min_present = ref max_int in
  for i = 0 to n - 1 do
    min_present := min !min_present (V.Dag.cardinal (V.Node.dag (Gossip.node g i)))
  done;
  let lost = !created + 1 - !min_present in
  let availability = float_of_int !append_ok /. float_of_int (max 1 !append_all) in
  let heal_lag =
    Option.map (fun l -> l /. scale /. 1000.) (Vegvisir_obs.Monitor.last_lag monitor)
  in
  (!created, lost, availability, Gossip.honest_converged g, heal_lag)

let baseline_run ~scale =
  let ms x = x *. scale in
  let topo = Topology.clique ~n in
  let net = Simnet.create ~topo ~link:Link.default ~seed:12L in
  let miner =
    Nakamoto.Miner.create ~net ~difficulty_bits:16
      ~mean_find_interval_ms:(ms 5_000.) ()
  in
  Nakamoto.Miner.start miner;
  let submitted = ref 0 in
  let p_start = ms 10_000. and p_end = ms 70_000. in
  let appends_end = ms 80_000. and run_end = ms 160_000. in
  let rec go t =
    if t <= run_end then begin
      Simnet.run_until net t;
      if t >= p_start && t < p_start +. ms 3_000. then
        Simnet.set_partition net (Some groups);
      if t >= p_end && t < p_end +. ms 3_000. then Simnet.set_partition net None;
      if t <= appends_end then
        for i = 0 to n - 1 do
          Nakamoto.Miner.submit_tx miner i (Printf.sprintf "p-%d-%.0f" i t);
          incr submitted
        done;
      go (t +. ms 3_000.)
    end
  in
  go (ms 3_000.);
  Simnet.run_until net run_end;
  let canonical = List.length (Nakamoto.Miner.canonical_tx_set miner 0) in
  let discarded = Nakamoto.Linear_chain.discarded_count (Nakamoto.Miner.chain miner 0) in
  let reorgs = Nakamoto.Linear_chain.reorg_count (Nakamoto.Miner.chain miner 0) in
  (!submitted, canonical, discarded, reorgs)

let run ?(quick = false) () =
  let scale = if quick then 0.35 else 1.0 in
  let created, lost, avail, converged, heal_lag = vegvisir_run ~scale in
  let submitted, canonical, discarded, reorgs = baseline_run ~scale in
  {
    Report.id = "E4";
    title = "Partition: blocks lost and availability";
    claim =
      "Vegvisir loses nothing across a partition and stays fully available \
       on both sides; longest-chain discards the losing branch";
    header = [ "system"; "appended/submitted"; "survived"; "lost"; "extra" ];
    rows =
      [
        [
          "Vegvisir";
          Report.fi created;
          Report.fi (created - lost);
          Report.fi lost;
          Printf.sprintf "availability %s, converged %b, heal lag %s s"
            (Report.fpct avail) converged
            (match heal_lag with
            | Some l -> Report.ff ~decimals:1 l
            | None -> "-");
        ];
        [
          "PoW baseline";
          Report.fi submitted;
          Report.fi canonical;
          Report.fi (submitted - canonical);
          Printf.sprintf "%d discarded block(s), %d reorg(s)" discarded reorgs;
        ];
      ];
    notes =
      [
        "8 peers split 4/4 for 60 s while both sides keep appending";
        "baseline txs on the losing branch are not re-mined (no mempool \
         rebroadcast), matching the paper's double-spend anecdote (§I)";
      ];
    registry = [];
  }
