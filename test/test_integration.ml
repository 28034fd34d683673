(* End-to-end integration tests: full fleets exercising the paper's
   §IV-A properties together — tamperproofness, provenance, authenticity,
   transitivity, access control, partition tolerance, storage
   efficiency — plus combined scenarios (partition + offload + witness +
   revocation). *)

open Vegvisir_net
module V = Vegvisir
module E = Vegvisir_experiments
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let spec_log = Schema.spec Schema.Gset Value.T_string

let add g i entry =
  match
    V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log" ~op:"add"
      [ Value.String entry ]
  with
  | Ok tx -> (match Gossip.append g i [ tx ] with Ok b -> Some b | Error _ -> None)
  | Error _ -> None

let advance fleet ms =
  Scenario.run fleet ~until_ms:(Simnet.now fleet.Scenario.net +. ms)

let converge ?(cap = 600_000.) fleet =
  let g = fleet.Scenario.gossip in
  let deadline = Simnet.now fleet.Scenario.net +. cap in
  while (not (Gossip.honest_converged g)) && Simnet.now fleet.Scenario.net < deadline do
    advance fleet 5_000.
  done;
  Gossip.honest_converged g

(* ------------------------------------------------------------------ *)

let transitivity_property () =
  (* §IV-A Transitivity: one user learns of a transaction -> eventually
     all users do, here across a sparse mobile-ish grid with loss. *)
  let topo = Topology.grid ~n:9 ~spacing:10. ~range:15. in
  let fleet =
    Scenario.build ~seed:61L ~topo
      ~link:(Link.make ~loss:0.1 ())
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  advance fleet 2_000.;
  let b = Option.get (add g 4 "spreads") in
  advance fleet 120_000.;
  check_i "all peers hold the block" 9 (Gossip.coverage g b.V.Block.hash)

let bloom_mode_fleet () =
  (* The whole gossip layer also runs on the bloom protocol. *)
  let topo = Topology.clique ~n:6 in
  let fleet =
    Scenario.build ~seed:62L ~topo ~mode:Vegvisir.Reconcile.Bloom
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  advance fleet 2_000.;
  for i = 0 to 5 do
    ignore (add g i (Printf.sprintf "ix-%d" i))
  done;
  check_b "bloom fleet converges" true (converge fleet);
  check_b "sessions completed" true (Gossip.sessions_completed g > 0)

let nested_partitions_heal () =
  (* Partition, then partition again differently, then heal: the DAG must
     still merge losslessly. *)
  let topo = Topology.clique ~n:8 in
  let fleet = Scenario.build ~seed:63L ~topo ~init_crdts:[ ("log", spec_log) ] () in
  let g = fleet.Scenario.gossip in
  let t = Simnet.topo fleet.Scenario.net in
  advance fleet 2_000.;
  let created = ref 0 in
  let burst () =
    for i = 0 to 7 do
      if add g i (Printf.sprintf "n-%d-%d" i !created) <> None then incr created
    done
  in
  Topology.set_partition t (Some [| 0; 0; 0; 0; 1; 1; 1; 1 |]);
  burst ();
  advance fleet 20_000.;
  Topology.set_partition t (Some [| 0; 1; 0; 1; 0; 1; 0; 1 |]);
  burst ();
  advance fleet 20_000.;
  Topology.set_partition t None;
  burst ();
  check_b "converged" true (converge fleet);
  let expected = !created + 1 in
  for i = 0 to 7 do
    check_i
      (Printf.sprintf "peer %d holds everything" i)
      expected
      (V.Dag.cardinal (V.Node.dag (Gossip.node g i)))
  done

let mobile_network_converges () =
  (* Random-waypoint mobility: connectivity changes continuously; the
     fleet still converges. *)
  let rng = Vegvisir_crypto.Rng.create 64L in
  let topo = Topology.random_uniform rng ~n:10 ~area:60. ~range:25. in
  let fleet = Scenario.build ~seed:65L ~topo ~init_crdts:[ ("log", spec_log) ] () in
  let g = fleet.Scenario.gossip in
  let move_rng = Vegvisir_crypto.Rng.create 66L in
  for step = 1 to 120 do
    Topology.random_waypoint_step move_rng (Simnet.topo fleet.Scenario.net)
      ~area:60. ~speed:1.5 ~dt:1.;
    if step mod 10 = 0 && step <= 60 then
      ignore (add g (step / 10 - 1) (Printf.sprintf "m-%d" step));
    advance fleet 1_000.
  done;
  (* Park everyone in range and let gossip finish. *)
  let t = Simnet.topo fleet.Scenario.net in
  for i = 0 to 9 do
    Topology.move t i (float_of_int i, 0.)
  done;
  check_b "mobile fleet converged" true (converge fleet);
  match V.Csm.query (V.Node.csm (Gossip.node g 9)) ~crdt:"log" ~op:"size" [] with
  | Ok (Value.Int 6) -> ()
  | Ok v -> Alcotest.failf "size: %a" Value.pp v
  | Error e -> Alcotest.failf "query: %s" (Schema.error_to_string e)

let offload_during_partition () =
  (* Devices prune under a cap while partitioned; after heal and re-sync,
     new joiners can recover everything from the superpeer chain. *)
  let topo = Topology.clique ~n:4 in
  let fleet = Scenario.build ~seed:67L ~topo ~init_crdts:[ ("log", spec_log) ] () in
  let g = fleet.Scenario.gossip in
  let sp = V.Offload.create () in
  V.Offload.absorb sp fleet.Scenario.genesis;
  advance fleet 2_000.;
  Topology.set_partition (Simnet.topo fleet.Scenario.net) (Some [| 0; 0; 1; 1 |]);
  for round = 1 to 30 do
    for i = 0 to 3 do
      ignore (add g i (Printf.sprintf "r%d-%d-%s" round i (String.make 120 'd')))
    done;
    advance fleet 2_000.;
    for i = 0 to 3 do
      ignore
        (V.Node.prune_to (Gossip.node g i) ~max_bytes:20_000
           ~archived:(fun b -> V.Offload.absorb sp b))
    done
  done;
  Topology.set_partition (Simnet.topo fleet.Scenario.net) None;
  (* Peers pruned history the other side never saw; the gap must be
     recovered from the superpeer's archive, exactly the Fig. 4 loop. *)
  let deadline = Simnet.now fleet.Scenario.net +. 900_000. in
  while (not (Gossip.honest_converged g)) && Simnet.now fleet.Scenario.net < deadline do
    advance fleet 5_000.;
    for i = 0 to 3 do
      let node = Gossip.node g i in
      V.Hash_id.Set.iter
        (fun h ->
          match V.Offload.fetch sp h with
          | Some b -> ignore (V.Node.receive node ~now:(V.Timestamp.of_ms 100_000_000L) b)
          | None -> ())
        (V.Node.missing_dependencies node)
    done
  done;
  check_b "converged after heal (with superpeer recovery)" true
    (Gossip.honest_converged g);
  (* Superpeer absorbs a full replica and archives. *)
  V.Offload.absorb_all sp (V.Dag.topo_order (V.Node.dag (Gossip.node g 0)));
  ignore (V.Offload.flush sp);
  check_b "support chain verifies" true (V.Support.verify (V.Offload.chain sp));
  (* Storage cap respected once devices shed the recovered history. *)
  for i = 0 to 3 do
    ignore
      (V.Node.prune_to (Gossip.node g i) ~max_bytes:20_000
         ~archived:(fun b -> V.Offload.absorb sp b));
    check_b
      (Printf.sprintf "peer %d near cap" i)
      true
      (V.Dag.byte_size (V.Node.dag (Gossip.node g i)) <= 24_000)
  done

let authenticity_under_gossip () =
  (* A non-member's blocks never enter any replica, even when injected
     directly at an honest peer. *)
  let topo = Topology.clique ~n:4 in
  let fleet = Scenario.build ~seed:68L ~topo ~init_crdts:[ ("log", spec_log) ] () in
  let g = fleet.Scenario.gossip in
  advance fleet 2_000.;
  let outsider = V.Signer.oracle ~signature_size:64 ~id:"outsider" () in
  let forged =
    V.Block.create ~signer:outsider
      ~creator:(V.Signer.user_id_of_public outsider.V.Signer.public)
      ~timestamp:(V.Timestamp.of_ms 10_000L)
      ~parents:[ fleet.Scenario.genesis.V.Block.hash ]
      [ V.Transaction.make ~crdt:"log" ~op:"add" [ Value.String "forged" ] ]
  in
  Gossip.receive g 0 forged;
  advance fleet 60_000.;
  check_i "forged block nowhere" 0 (Gossip.coverage g forged.V.Block.hash);
  (* Impersonation: a member's creator id with the wrong key. *)
  let impersonation =
    V.Block.create ~signer:outsider
      ~creator:(V.Node.user_id (Gossip.node g 1))
      ~timestamp:(V.Timestamp.of_ms 10_000L)
      ~parents:[ fleet.Scenario.genesis.V.Block.hash ]
      [ V.Transaction.make ~crdt:"log" ~op:"add" [ Value.String "fake" ] ]
  in
  Gossip.receive g 0 impersonation;
  advance fleet 60_000.;
  check_i "impersonation nowhere" 0 (Gossip.coverage g impersonation.V.Block.hash)

let experiments_quick_mode_runs () =
  (* The two pure (network-free) experiments run end-to-end and report
     the expected qualitative shape — a cheap regression net over the
     whole bench pipeline. *)
  let t2 = E.Exp_reconcile.run ~quick:true () in
  check_b "E2 produced rows" true (List.length t2.E.Report.rows >= 3);
  let t8 = E.Exp_ablation.run ~quick:true () in
  check_b "E8 produced rows" true (List.length t8.E.Report.rows >= 2);
  (* In every E8 row the one-round protocols are at least as cheap as the
     paper's level escalation (the "vs naive" ratio). *)
  List.iter
    (fun row ->
      match row with
      | [ _; _; protocol; rounds; _; _; ratio ] ->
        check_b "rounds parse" true (int_of_string rounds >= 1);
        if protocol <> "naive (Alg. 1)" then
          check_b
            (Printf.sprintf "%s at least matches naive" protocol)
            true
            (float_of_string ratio >= 1.0)
      | _ -> Alcotest.fail "unexpected row shape")
    t8.E.Report.rows

let () =
  Alcotest.run "integration"
    [
      ( "properties",
        [
          Alcotest.test_case "transitivity" `Slow transitivity_property;
          Alcotest.test_case "authenticity" `Slow authenticity_under_gossip;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "bloom-mode fleet" `Slow bloom_mode_fleet;
          Alcotest.test_case "nested partitions" `Slow nested_partitions_heal;
          Alcotest.test_case "mobility" `Slow mobile_network_converges;
          Alcotest.test_case "offload during partition" `Slow offload_during_partition;
        ] );
      ( "experiments",
        [ Alcotest.test_case "quick-mode pipeline" `Slow experiments_quick_mode_runs ] );
    ]
