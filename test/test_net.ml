(* Unit tests for the network simulator: event queue, energy, topology,
   links, metrics, engine, and the gossip agent's adversary handling. *)

open Vegvisir_net
module V = Vegvisir
module Rng = Vegvisir_crypto.Rng
module Workload = Vegvisir_experiments.Workload

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Event queue                                                          *)

let queue_ordering () =
  let q = Event_queue.create () in
  check_b "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  check_i "size" 3 (Event_queue.size q);
  check_b "peek" true (Event_queue.peek_time q = Some 1.0);
  Alcotest.(check (list string))
    "sorted pop" [ "a"; "b"; "c" ]
    (List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))));
  check_b "drained" true (Event_queue.pop q = None)

let queue_tie_break_fifo () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:5.0 i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let queue_nan_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Event_queue.push q ~time:Float.nan ())

let queue_random_sorted () =
  let rng = Rng.create 9L in
  let q = Event_queue.create () in
  for i = 0 to 999 do
    Event_queue.push q ~time:(Rng.float rng *. 100.) i
  done;
  let rec drain last n =
    match Event_queue.pop q with
    | None -> n
    | Some (t, _) ->
      check_b "non-decreasing" true (t >= last);
      drain t (n + 1)
  in
  check_i "all drained" 1000 (drain neg_infinity 0)

(* ------------------------------------------------------------------ *)
(* Energy                                                               *)

let energy_accounting () =
  let m = Energy.meter () in
  m.Energy.tx_bytes <- 100;
  m.Energy.hashes <- 10;
  let c = Energy.default_costs in
  let expected = (100. *. c.Energy.tx_per_byte) +. (10. *. c.Energy.per_hash) in
  Alcotest.(check (float 1e-9)) "total" expected (Energy.total c m);
  let m2 = Energy.meter () in
  m2.Energy.tx_bytes <- 50;
  Energy.add m m2;
  check_i "accumulate" 150 m.Energy.tx_bytes;
  Energy.reset m;
  check_i "reset" 0 m.Energy.tx_bytes

(* ------------------------------------------------------------------ *)
(* Topology                                                             *)

let topology_geometry () =
  let t = Topology.line ~n:4 ~spacing:10. ~range:12. in
  check_b "adjacent in range" true (Topology.connected t 0 1);
  check_b "two hops out of range" false (Topology.connected t 0 2);
  check_b "self not connected" false (Topology.connected t 1 1);
  Alcotest.(check (list int)) "middle neighbors" [ 0; 2 ] (Topology.neighbors t 1);
  check_i "one component" 1 (List.length (Topology.components t));
  Topology.move t 3 (1000., 1000.);
  check_i "moved node isolated" 2 (List.length (Topology.components t))

let topology_partitions () =
  let t = Topology.clique ~n:6 in
  check_i "clique connected" 1 (List.length (Topology.components t));
  Topology.set_partition t (Some [| 0; 0; 0; 1; 1; 1 |]);
  check_b "cross-group blocked" false (Topology.connected t 0 3);
  check_b "in-group allowed" true (Topology.connected t 0 1);
  check_i "two components" 2 (List.length (Topology.components t));
  check_b "partition_of" true (Topology.partition_of t 4 = Some 1);
  Topology.set_partition t None;
  check_i "healed" 1 (List.length (Topology.components t));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Topology.set_partition: group array size mismatch")
    (fun () -> Topology.set_partition t (Some [| 0 |]))

let topology_mobility () =
  let rng = Rng.create 3L in
  let t = Topology.random_uniform rng ~n:10 ~area:100. ~range:30. in
  let before = Array.init 10 (Topology.position t) in
  for _ = 1 to 20 do
    Topology.random_waypoint_step rng t ~area:100. ~speed:5. ~dt:1.
  done;
  let moved = ref 0 in
  Array.iteri
    (fun i p -> if p <> Topology.position t i then incr moved)
    before;
  check_b "most nodes moved" true (!moved >= 8);
  (* All positions stay within the area (waypoints are inside it). *)
  for i = 0 to 9 do
    let x, y = Topology.position t i in
    check_b "in area" true (x >= -1. && x <= 101. && y >= -1. && y <= 101.)
  done

(* ------------------------------------------------------------------ *)
(* Link                                                                 *)

let link_model () =
  let rng = Rng.create 4L in
  let l = Link.make ~base_latency_ms:10. ~bandwidth_bytes_per_ms:100. ~jitter_ms:0. ~loss:0. () in
  (match Link.delivery rng l ~bytes:1000 with
  | Some latency -> Alcotest.(check (float 0.001)) "latency" 20.0 latency
  | None -> Alcotest.fail "lossless link dropped");
  let lossy = Link.make ~loss:1.0 () in
  check_b "always lost" true (Link.delivery rng lossy ~bytes:10 = None);
  Alcotest.check_raises "bad loss" (Invalid_argument "Link.make: loss must be in [0,1]")
    (fun () -> ignore (Link.make ~loss:1.5 ()))

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let metrics_stats () =
  let s = Metrics.series "x" in
  List.iteri (fun i v -> Metrics.record s ~t:(float_of_int i) v) [ 1.; 2.; 3.; 4.; 100. ];
  Alcotest.(check (float 1e-9)) "mean" 22. (Metrics.mean s);
  Alcotest.(check (float 1e-9)) "p50" 3. (Metrics.percentile s 0.5);
  Alcotest.(check (float 1e-9)) "max" 100. (Metrics.maximum s);
  Alcotest.(check (float 1e-9)) "min" 1. (Metrics.minimum s);
  Alcotest.(check (float 1e-9)) "last" 100. (Metrics.last s);
  check_i "count" 5 (Metrics.count s);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Metrics.mean_of []);
  Alcotest.(check (float 1e-9)) "p100" 100. (Metrics.percentile_of [ 1.; 100. ] 1.0)

(* ------------------------------------------------------------------ *)
(* Simnet engine                                                        *)

let simnet_delivery_and_timers () =
  let topo = Topology.clique ~n:2 in
  let link = Link.make ~base_latency_ms:5. ~jitter_ms:0. ~loss:0. () in
  let net = Simnet.create ~topo ~link ~seed:1L in
  let got = ref [] in
  Simnet.set_handlers net
    {
      Simnet.on_message = (fun ~me ~from payload -> got := (`Msg (me, from, payload)) :: !got);
      on_timer = (fun ~me ~tag -> got := (`Timer (me, tag)) :: !got);
    };
  Simnet.send net ~src:0 ~dst:1 "hello";
  Simnet.set_timer net ~node:0 ~after:2. ~tag:"tick";
  Simnet.run_until net 100.;
  check_b "timer fired first" true
    (List.rev !got = [ `Timer (0, "tick"); `Msg (1, 0, "hello") ]);
  check_i "delivered" 1 (Simnet.messages_delivered net);
  check_i "tx energy" 5 (Simnet.meter net 0).Energy.tx_bytes;
  check_i "rx energy" 5 (Simnet.meter net 1).Energy.rx_bytes;
  check_b "idle charged" true ((Simnet.meter net 0).Energy.idle_ms > 0.)

let simnet_partition_blocks_messages () =
  let topo = Topology.clique ~n:2 in
  Topology.set_partition topo (Some [| 0; 1 |]);
  let net = Simnet.create ~topo ~link:(Link.make ~loss:0. ()) ~seed:1L in
  let got = ref 0 in
  Simnet.set_handlers net
    {
      Simnet.on_message = (fun ~me:_ ~from:_ _ -> incr got);
      on_timer = (fun ~me:_ ~tag:_ -> ());
    };
  Simnet.send net ~src:0 ~dst:1 "blocked";
  Simnet.run_until net 100.;
  check_i "nothing delivered" 0 !got;
  check_i "counted dropped" 1 (Simnet.messages_dropped net)

let simnet_determinism () =
  let run () =
    let topo = Topology.grid ~n:9 ~spacing:10. ~range:15. in
    let fleet =
      Scenario.build ~seed:123L ~topo
        ~init_crdts:[ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset
                         Vegvisir_crdt.Value.T_string) ] ()
    in
    Scenario.run fleet ~until_ms:5_000.;
    ( Simnet.messages_sent fleet.Scenario.net,
      Simnet.messages_delivered fleet.Scenario.net,
      Simnet.now fleet.Scenario.net )
  in
  check_b "identical runs" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Gossip agent with adversaries                                        *)

let spec_log =
  Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset Vegvisir_crdt.Value.T_string

let add_entry g i entry =
  match
    V.Node.prepare_transaction (Gossip.node g i) ~crdt:"log" ~op:"add"
      [ Vegvisir_crdt.Value.String entry ]
  with
  | Ok tx -> (match Gossip.append g i [ tx ] with Ok b -> Some b | Error _ -> None)
  | Error _ -> None

let gossip_routes_around_withholder () =
  (* Line 0 - 1 - 2 where 1 withholds others' blocks: 0's blocks must NOT
     reach 2 (1 is the only path and censors), demonstrating what
     withholding does; then the same line with an extra honest path shows
     dissemination survives. *)
  let topo = Topology.line ~n:3 ~spacing:10. ~range:12. in
  let fleet =
    Scenario.build ~seed:31L ~topo
      ~behaviors:[| Gossip.Honest; Gossip.Withholding; Gossip.Honest |]
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  Scenario.run fleet ~until_ms:2_000.;
  let b = Option.get (add_entry g 0 "censored?") in
  Scenario.run fleet ~until_ms:60_000.;
  check_b "withholder itself got it" true
    (V.Dag.mem (V.Node.dag (Gossip.node g 1)) b.V.Block.hash);
  check_b "node 2 censored" false
    (V.Dag.mem (V.Node.dag (Gossip.node g 2)) b.V.Block.hash);
  (* Clique: an honest path exists, the withholder cannot censor. *)
  let topo2 = Topology.clique ~n:3 in
  let fleet2 =
    Scenario.build ~seed:32L ~topo:topo2
      ~behaviors:[| Gossip.Honest; Gossip.Withholding; Gossip.Honest |]
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g2 = fleet2.Scenario.gossip in
  Scenario.run fleet2 ~until_ms:2_000.;
  let b2 = Option.get (add_entry g2 0 "survives") in
  Scenario.run fleet2 ~until_ms:60_000.;
  check_b "honest path wins" true
    (V.Dag.mem (V.Node.dag (Gossip.node g2 2)) b2.V.Block.hash)

let gossip_silent_peers_dont_block () =
  let topo = Topology.clique ~n:5 in
  let fleet =
    Scenario.build ~seed:33L ~topo
      ~behaviors:[| Gossip.Honest; Gossip.Silent; Gossip.Silent; Gossip.Honest; Gossip.Honest |]
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  Scenario.run fleet ~until_ms:2_000.;
  let b = Option.get (add_entry g 0 "through") in
  Scenario.run fleet ~until_ms:120_000.;
  check_b "honest peers all have it" true
    (List.for_all
       (fun i -> V.Dag.mem (V.Node.dag (Gossip.node g i)) b.V.Block.hash)
       [ 0; 3; 4 ]);
  check_b "stats exposed" true (Gossip.sessions_completed g > 0)

let gossip_witness_and_coverage () =
  let topo = Topology.clique ~n:4 in
  let fleet =
    Scenario.build ~seed:34L ~topo ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  let arrivals = Workload.track_arrivals fleet.Scenario.obs in
  Scenario.run fleet ~until_ms:2_000.;
  let b = Option.get (add_entry g 1 "observed") in
  check_i "creator holds it" 1 (Gossip.coverage g b.V.Block.hash);
  Scenario.run fleet ~until_ms:30_000.;
  check_i "full coverage" 4 (Gossip.coverage g b.V.Block.hash);
  check_b "birth recorded" true (Workload.birth arrivals b.V.Block.hash <> None);
  check_b "arrival recorded elsewhere" true
    (Workload.arrival arrivals ~peer:3 b.V.Block.hash <> None);
  (* Witness through the gossip layer. *)
  (match Gossip.witness g 2 with Ok _ -> () | Error _ -> Alcotest.fail "witness");
  Scenario.run fleet ~until_ms:60_000.;
  check_b "proof visible at creator" true
    (V.Witness.has_proof (V.Node.dag (Gossip.node g 1)) b.V.Block.hash ~k:1)

(* The experiments' arrival fold: a block is born when its creator
   appends it, reaches the creator then, reaches every other peer when
   that peer's intake makes it resident, and stops being followed once
   the fold is untracked. *)
let arrival_fold () =
  let fleet =
    Scenario.build ~seed:35L ~topo:(Topology.clique ~n:3)
      ~init_crdts:[ ("log", spec_log) ] ()
  in
  let g = fleet.Scenario.gossip in
  let arrivals = Workload.track_arrivals fleet.Scenario.obs in
  let at = Alcotest.(check (option (float 0.))) in
  Scenario.run fleet ~until_ms:2_000.;
  let born = Simnet.now fleet.Scenario.net in
  let h = (Option.get (add_entry g 1 "timed")).V.Block.hash in
  at "birth is the append time" (Some born) (Workload.birth arrivals h);
  at "the creator has it at birth" (Some born) (Workload.arrival arrivals ~peer:1 h);
  at "no other peer yet" None (Workload.arrival arrivals ~peer:0 h);
  let delays, missing = Workload.delays arrivals ~peers:3 ~scale:1. [ h ] in
  check_b "one zero delay, two pairs missing" true (delays = [ 0. ] && missing = 2);
  Scenario.run fleet ~until_ms:30_000.;
  let delays, missing = Workload.delays arrivals ~peers:3 ~scale:2. [ h ] in
  check_i "every pair arrived" 0 missing;
  let expected =
    List.rev_map
      (fun peer -> (Option.get (Workload.arrival arrivals ~peer h) -. born) /. 2.)
      [ 0; 1; 2 ]
  in
  check_b "delays are arrival minus birth over scale, the last peer first" true
    (delays = expected);
  check_b "the others arrived later" true
    (List.for_all (fun d -> d > 0.) [ List.nth delays 0; List.nth delays 2 ]);
  Workload.untrack arrivals;
  let late = (Option.get (add_entry g 2 "untracked")).V.Block.hash in
  at "untracked blocks have no birth" None (Workload.birth arrivals late);
  Alcotest.check_raises "a block with no birth has no delay"
    (Failure "Workload.delays: no Created event for a block") (fun () ->
      ignore (Workload.delays arrivals ~peers:3 ~scale:1. [ late ]))

(* ------------------------------------------------------------------ *)
(* Duty cycling                                                         *)

let duty_cycle_basics () =
  let topo = Topology.clique ~n:2 in
  let net = Simnet.create ~topo ~link:(Link.make ~loss:0. ()) ~seed:2L in
  check_b "default awake" true (Simnet.is_awake net 0);
  Simnet.set_duty_cycle net ~node:0 ~period_ms:1000. ~awake_fraction:0.25;
  (* Over many sampled instants the node is asleep most of the time. *)
  let awake = ref 0 in
  for k = 1 to 400 do
    Simnet.run_until net (float_of_int k *. 10.);
    if Simnet.is_awake net 0 then incr awake
  done;
  let frac = float_of_int !awake /. 400. in
  check_b (Printf.sprintf "awake fraction %.2f near 0.25" frac) true
    (frac > 0.1 && frac < 0.4);
  Simnet.clear_duty_cycle net ~node:0;
  check_b "cleared" true (Simnet.is_awake net 0);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Simnet.set_duty_cycle: awake_fraction must be in (0, 1]")
    (fun () -> Simnet.set_duty_cycle net ~node:0 ~period_ms:100. ~awake_fraction:0.)

let duty_cycle_blocks_sleeping_receiver () =
  let topo = Topology.clique ~n:2 in
  let net = Simnet.create ~topo ~link:(Link.make ~base_latency_ms:1. ~jitter_ms:0. ~loss:0. ()) ~seed:3L in
  let got = ref 0 in
  Simnet.set_handlers net
    {
      Simnet.on_message = (fun ~me:_ ~from:_ _ -> incr got);
      on_timer = (fun ~me:_ ~tag:_ -> ());
    };
  (* Make node 1 sleep except a tiny window; spam messages across a full
     period: only a fraction get through. *)
  Simnet.set_duty_cycle net ~node:1 ~period_ms:1000. ~awake_fraction:0.2;
  for k = 0 to 99 do
    Simnet.run_until net (float_of_int k *. 10.);
    Simnet.send net ~src:0 ~dst:1 "ping"
  done;
  Simnet.run_until net 2_000.;
  check_b (Printf.sprintf "some delivered (%d)" !got) true (!got > 0);
  check_b (Printf.sprintf "most dropped (%d)" !got) true (!got < 60)

(* ------------------------------------------------------------------ *)
(* Scenario script                                                      *)

let script_parses_and_runs () =
  let text =
    {|
# comment
peers 4
topology clique
seed 9
interval 500
mode bloom
crdt log gset string

at 1000 partition 0 0 1 1
at 2000 append 0 log left entry with spaces
at 2500 append 3 log right
at 5000 heal
at 40000 assert-converged
at 40000 assert-coverage 1.0
at 40000 report
run 41000
|}
  in
  match Script.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok scenario -> begin
    match Script.run scenario with
    | Ok report ->
      check_b "report mentions convergence" true
        (let re = "converged=true" in
         let rec contains i =
           i + String.length re <= String.length report
           && (String.sub report i (String.length re) = re || contains (i + 1))
         in
         contains 0)
    | Error e -> Alcotest.failf "run: %s" e
  end

let script_rejects_malformed () =
  let bad msg text =
    match Script.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" msg
  in
  bad "missing peers" "run 1000
";
  bad "missing run" "peers 3
";
  bad "bad directive" "peers 3
frobnicate
run 100
";
  bad "bad peer index" "peers 2
at 10 append 5 log x
run 100
";
  bad "partition arity" "peers 3
at 10 partition 0 1
run 100
";
  bad "bad mode" "peers 2
mode warp
run 100
"

let script_failing_assert () =
  let text =
    {|
peers 4
topology clique
seed 9
crdt log gset string
at 1000 partition 0 0 1 1
at 2000 append 0 log only-left
at 3000 assert-converged
run 4000
|}
  in
  match Script.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok scenario -> begin
    match Script.run scenario with
    | Error _ -> () (* the partition prevents convergence: must fail *)
    | Ok _ -> Alcotest.fail "assertion should have failed"
  end

let () =
  Alcotest.run "net"
    [
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick queue_ordering;
          Alcotest.test_case "fifo ties" `Quick queue_tie_break_fifo;
          Alcotest.test_case "nan" `Quick queue_nan_rejected;
          Alcotest.test_case "random sorted" `Quick queue_random_sorted;
        ] );
      ("energy", [ Alcotest.test_case "accounting" `Quick energy_accounting ]);
      ( "topology",
        [
          Alcotest.test_case "geometry" `Quick topology_geometry;
          Alcotest.test_case "partitions" `Quick topology_partitions;
          Alcotest.test_case "mobility" `Quick topology_mobility;
        ] );
      ("link", [ Alcotest.test_case "model" `Quick link_model ]);
      ("metrics", [ Alcotest.test_case "stats" `Quick metrics_stats ]);
      ( "simnet",
        [
          Alcotest.test_case "delivery and timers" `Quick simnet_delivery_and_timers;
          Alcotest.test_case "partition blocks" `Quick simnet_partition_blocks_messages;
          Alcotest.test_case "determinism" `Quick simnet_determinism;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "withholding adversary" `Quick gossip_routes_around_withholder;
          Alcotest.test_case "silent peers" `Quick gossip_silent_peers_dont_block;
          Alcotest.test_case "witness + coverage" `Quick gossip_witness_and_coverage;
          Alcotest.test_case "arrival fold" `Quick arrival_fold;
        ] );
      ( "duty-cycle",
        [
          Alcotest.test_case "basics" `Quick duty_cycle_basics;
          Alcotest.test_case "sleeping receiver" `Quick duty_cycle_blocks_sleeping_receiver;
        ] );
      ( "script",
        [
          Alcotest.test_case "parses and runs" `Quick script_parses_and_runs;
          Alcotest.test_case "rejects malformed" `Quick script_rejects_malformed;
          Alcotest.test_case "failing assert" `Quick script_failing_assert;
        ] );
    ]
