open Vegvisir_net
module V = Vegvisir
module Rng = Vegvisir_crypto.Rng

(* Fig. 1 depicts the blockchain itself, so the metric is the branch width
   of the union of all replicas: during a P-way partition the union DAG has
   ~P frontier leaves; after healing, the first reined appends merge them
   back to ~1. A single replica always sees width ~1 right after its own
   append (its block absorbed the frontier it knew). *)
let union_width gossip =
  let n = Gossip.size gossip in
  let union = ref (V.Node.dag (Gossip.node gossip 0)) in
  for i = 1 to n - 1 do
    let merged, _ =
      V.Reconcile.sync_dags V.Reconcile.Digest !union (V.Node.dag (Gossip.node gossip i))
    in
    union := merged
  done;
  V.Dag.branch_width !union

(* One run: (mean union width in partition steady state, union width after
   healed appends, union width max). *)
let run_one ~quick ~partitions ~reining =
  let n = 8 in
  let scale = if quick then 0.4 else 1.0 in
  let ms x = x *. scale in
  let topo = Topology.clique ~n in
  let fleet =
    Scenario.build ~seed:(Int64.of_int (partitions + if reining then 0 else 100))
      ~topo ~interval_ms:(ms 500.) ~session_timeout_ms:(ms 60_000.)
      ~init_crdts:[ ("log", Workload.log_spec) ]
      ()
  in
  let g = fleet.Scenario.gossip in
  let rng = Rng.create 99L in
  let groups = Array.init n (fun i -> i mod partitions) in
  let samples = ref [] in
  let max_width = ref 0 in
  let seq = ref 0 in
  let append_at i =
    if reining then ignore (Workload.add_entry g i (Printf.sprintf "e%d-%d" i !seq))
    else begin
      (* Ablation: extend one random frontier block only. *)
      let node = Gossip.node g i in
      let frontier = V.Hash_id.Set.elements (V.Dag.frontier (V.Node.dag node)) in
      match frontier with
      | [] -> ()
      | l -> begin
        let parent = Rng.pick rng l in
        match
          V.Node.prepare_transaction node ~crdt:"log" ~op:"add"
            [ Vegvisir_crdt.Value.String (Printf.sprintf "n%d-%d" i !seq) ]
        with
        | Error _ -> ()
        | Ok tx ->
          ignore
            (V.Node.append node
               ~now:(V.Timestamp.of_ms (Int64.of_float (Simnet.now fleet.Scenario.net)))
               ~parents:[ parent ] [ tx ])
      end
    end;
    incr seq
  in
  (* Burst-then-quiesce cycles so that partition-induced branching is not
     conflated with in-flight concurrency: at each cycle start one node per
     partition group appends; gossip mixes for 5 s; then we sample. *)
  let cycle = ms 8_000. in
  let partition_start = 2. *. cycle and partition_end = 7. *. cycle in
  let appends_end = 15. *. cycle and run_end = 17. *. cycle in
  let cycle_no = ref 0 in
  let step t =
      let net = fleet.Scenario.net in
      if t >= partition_start && t < partition_start +. ms 1_000. then
        Simnet.set_partition net
          (if partitions > 1 then Some groups else None);
      if t >= partition_end && t < partition_end +. ms 1_000. then
        Simnet.set_partition net None;
      let phase = Float.rem t cycle in
      if phase < ms 1_000. && t <= appends_end then begin
        incr cycle_no;
        (* One appender per connected component, rotating. Concurrency in
           the union DAG then comes from the partition alone. *)
        List.iter
          (fun component ->
            match component with
            | [] -> ()
            (* lint: allow no-partial-stdlib — cycle_no mod length l is in range and l <> [] in this branch *)
            | l -> append_at (List.nth l (!cycle_no mod List.length l)))
          (Topology.components topo)
      end;
      if phase >= ms 7_000. && phase < ms 8_000. then begin
        let w = union_width g in
        if t > partition_start +. cycle && t <= partition_end then begin
          samples := float_of_int w :: !samples;
          max_width := max !max_width w
        end
      end
  in
  Workload.drive fleet ~until_ms:run_end ~step_ms:(ms 1_000.) step;
  (* Post-heal: keep gossiping (appends have stopped) until the honest
     fleet converges, then let one final reined append close the branches
     and mix. Capped so the no-reining ablation terminates too. *)
  let t = ref run_end in
  while (not (Gossip.honest_converged g)) && !t < run_end +. (30. *. cycle) do
    t := !t +. cycle;
    Scenario.run fleet ~until_ms:!t
  done;
  if reining then append_at 0;
  Scenario.run fleet ~until_ms:(!t +. (3. *. cycle));
  let during = Metrics.mean_of !samples in
  let after = union_width g in
  (during, after, !max_width)

let run ?(quick = false) () =
  let rows =
    List.map
      (fun p ->
        let during, after, mx = run_one ~quick ~partitions:p ~reining:true in
        [ Report.fi p; "reining"; Report.ff during; Report.fi mx; Report.fi after ])
      [ 1; 2; 4 ]
    @ [ (let during, after, mx = run_one ~quick ~partitions:4 ~reining:false in
         [ "4"; "no-reining"; Report.ff during; Report.fi mx; Report.fi after ]) ]
  in
  {
    Report.id = "E1";
    title = "DAG branch width under partitions (Fig. 1)";
    claim =
      "branches track concurrent partitions and are reined back to ~1 after \
       healing; without frontier-reining the DAG stays wide";
    header =
      [ "partitions"; "policy"; "width (steady)"; "width (max)"; "width (healed)" ];
    rows;
    notes =
      [
        "width = frontier size of the union of all 8 replicas (the chain \
         itself, as in Fig. 1); appends every 1s per peer";
      ];
    registry = [];
  }
