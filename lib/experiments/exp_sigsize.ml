open Vegvisir_net
module V = Vegvisir

let n = 8

let run_size ~scale ~label ~sig_bytes =
  let ms x = x *. scale in
  let topo = Topology.clique ~n in
  let fleet =
    Scenario.build ~seed:91L ~topo
      ~signer:(Scenario.Oracle_sized sig_bytes)
      ~interval_ms:(ms 800.) ~stale_after_ms:(ms 3_000.)
      ~session_timeout_ms:(ms 30_000.)
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  let g = fleet.Scenario.gossip in
  let arrivals = Workload.track_arrivals fleet.Scenario.obs in
  let hashes = ref [] in
  let block_bytes = ref 0 in
  (* One appender per cycle, 16 blocks total: the comparison is about the
     per-block radio cost, so the offered load stays within channel
     capacity even for Lamport-sized blocks. *)
  let appended = ref 0 in
  Workload.drive fleet ~until_ms:(ms 140_000.) ~step_ms:(ms 8_000.) (fun t ->
      if !appended < 16 then begin
        let i = !appended mod n in
        match
          V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log" ~op:"add"
            [ Vegvisir_crdt.Value.String (Printf.sprintf "s-%d-%.0f" i t) ]
        with
        | Error _ -> ()
        | Ok tx -> begin
          match Gossip.append g i [ tx ] with
          | Ok b ->
            incr appended;
            hashes := b.V.Block.hash :: !hashes;
            block_bytes := V.Block.byte_size b
          | Error _ -> ()
        end
      end);
  (* Big signatures slow every transfer; run the tail to convergence so
     delay and coverage are measured on completed dissemination. *)
  let deadline = Simnet.now fleet.Scenario.net +. ms 600_000. in
  while
    (not (Gossip.honest_converged g)) && Simnet.now fleet.Scenario.net < deadline
  do
    Scenario.run fleet ~until_ms:(Simnet.now fleet.Scenario.net +. ms 10_000.)
  done;
  Workload.untrack arrivals;
  let delays, missing = Workload.delays arrivals ~peers:n ~scale !hashes in
  let net = fleet.Scenario.net in
  let total_energy = ref 0. and air_bytes = ref 0 in
  for i = 0 to n - 1 do
    let m = Simnet.meter net i in
    air_bytes := !air_bytes + m.Energy.tx_bytes;
    total_energy := !total_energy +. Energy.total Energy.default_costs m
  done;
  let pairs = List.length delays + missing in
  [
    label;
    Report.fi sig_bytes;
    Report.fi !block_bytes;
    Report.ff ~decimals:1 (Metrics.mean_of delays /. 1000.);
    Report.ff ~decimals:1 (float_of_int !air_bytes /. 1024. /. 1024.);
    Report.ff ~decimals:0 (!total_energy /. 1000. /. float_of_int n);
    Report.fpct (float_of_int (pairs - missing) /. float_of_int (max 1 pairs));
  ]

let run ?(quick = false) () =
  let scale = if quick then 0.3 else 1.0 in
  let sizes =
    [
      ("ECDSA-class", 64);
      ("MSS h=8 (ours)", Vegvisir_crypto.Mss.signature_size ~height:8);
      (* A Lamport one-time signature over a 256-bit digest reveals one
         32-byte preimage per bit and carries the hash of the other:
         256 bits x 2 x 32 bytes. *)
      ("Lamport-class", 16_384);
    ]
  in
  {
    Report.id = "E9";
    title = "Signature-size ablation (hash-based PKI substitution)";
    claim =
      "bigger signatures inflate every gossip transfer: propagation slows \
       and radio energy grows roughly with block size; coverage still \
       reaches everyone";
    header =
      [
        "scheme";
        "sig bytes";
        "block bytes";
        "mean delay (s)";
        "air MB";
        "mJ/peer";
        "coverage";
      ];
    rows = List.map (fun (label, sig_bytes) -> run_size ~scale ~label ~sig_bytes) sizes;
    notes =
      [
        "8-peer clique, 16 blocks appended one at a time (8 s apart), then run to convergence";
        "fleet simulations elsewhere use the 64-byte model; E2/E8 account \
         bytes with full MSS-sized signatures";
      ];
    registry = [];
  }
