open Vegvisir_net
module V = Vegvisir
module Nakamoto = Vegvisir_baseline

let n = 6
let costs = Energy.default_costs

let total_energy net =
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. Energy.total costs (Simnet.meter net i)
  done;
  !sum

let radio_share net =
  let radio = ref 0. and total = ref 0. in
  for i = 0 to n - 1 do
    let m = Simnet.meter net i in
    radio :=
      !radio
      +. (float_of_int m.Energy.tx_bytes *. costs.Energy.tx_per_byte)
      +. (float_of_int m.Energy.rx_bytes *. costs.Energy.rx_per_byte);
    total := !total +. Energy.total costs m
  done;
  if !total = 0. then 0. else !radio /. !total

let vegvisir_run ~duration ~tx_every =
  let topo = Topology.clique ~n in
  let fleet =
    Scenario.build ~seed:3L ~topo ~init_crdts:[ ("log", Workload.log_spec) ] ()
  in
  let g = fleet.Scenario.gossip in
  let count = ref 0 in
  Workload.drive fleet ~until_ms:duration ~step_ms:tx_every (fun t ->
      if t < duration -. (5. *. tx_every) then
        for i = 0 to n - 1 do
          if Workload.add_entry g i (Printf.sprintf "m-%d-%.0f" i t) then incr count
        done);
  let committed =
    V.Dag.cardinal (V.Dag.empty) |> ignore;
    V.Dag.cardinal (V.Node.dag (Gossip.node g 0)) - 1
  in
  (total_energy fleet.Scenario.net, radio_share fleet.Scenario.net, !count, committed)

let baseline_run ~duration ~tx_every ~difficulty_bits =
  let topo = Topology.clique ~n in
  let link = Link.default in
  let net = Simnet.create ~topo ~link ~seed:4L in
  let miner =
    Nakamoto.Miner.create ~net ~difficulty_bits ~mean_find_interval_ms:10_000. ()
  in
  Nakamoto.Miner.start miner;
  let count = ref 0 in
  let rec go t =
    if t <= duration then begin
      Simnet.run_until net t;
      if t < duration -. (5. *. tx_every) then
        for i = 0 to n - 1 do
          Nakamoto.Miner.submit_tx miner i (Printf.sprintf "m-%d-%.0f" i t);
          incr count
        done;
      go (t +. tx_every)
    end
  in
  go tx_every;
  Simnet.run_until net duration;
  let committed = List.length (Nakamoto.Miner.canonical_tx_set miner 0) in
  (total_energy net, radio_share net, !count, committed)

let run ?(quick = false) () =
  let duration = if quick then 60_000. else 300_000. in
  let tx_every = 5_000. in
  let ve, vr, _vsub, vcommit = vegvisir_run ~duration ~tx_every in
  let veg_row =
    [
      "Vegvisir";
      "-";
      Report.ff ~decimals:0 (ve /. 1.0e3);
      Report.fpct vr;
      Report.fi vcommit;
      Report.ff ~decimals:1 (ve /. 1.0e3 /. float_of_int (max 1 vcommit));
      "1.0x";
    ]
  in
  let pow_rows =
    List.map
      (fun bits ->
        let e, r, _sub, commit = baseline_run ~duration ~tx_every ~difficulty_bits:bits in
        [
          "PoW";
          Report.fi bits;
          Report.ff ~decimals:0 (e /. 1.0e3);
          Report.fpct r;
          Report.fi commit;
          Report.ff ~decimals:1 (e /. 1.0e3 /. float_of_int (max 1 commit));
          Printf.sprintf "%.0fx" (e /. ve);
        ])
      (if quick then [ 16; 20 ] else [ 12; 16; 20; 24 ])
  in
  {
    Report.id = "E3";
    title = "Energy: Vegvisir vs proof-of-work baseline";
    claim =
      "no cryptopuzzles: Vegvisir energy is radio-dominated and orders of \
       magnitude below PoW at any realistic difficulty";
    header =
      [
        "system";
        "difficulty";
        "energy (mJ)";
        "radio share";
        "committed";
        "mJ/commit";
        "vs Vegvisir";
      ];
    rows = veg_row :: pow_rows;
    notes =
      [
        Printf.sprintf
          "%d-node clique, %.0f s, 1 tx per node per %.0f s; BLE-class cost model"
          n (duration /. 1000.) (tx_every /. 1000.);
        "committed = blocks in every replica (Vegvisir) / txs on main chain (PoW)";
      ];
    registry = [];
  }
