module V = Vegvisir

let kb bytes = float_of_int bytes /. 1024.

(* Build two replicas with a braided shared prefix, then d/2 private blocks
   each. *)
let diverged_pair ~shared ~each =
  let a, b, _ = Workload.offline_pair () in
  (* Braid a shared history: alternate appends with full sync. *)
  for i = 1 to shared do
    let node = if i mod 2 = 0 then a else b in
    Workload.append_chain node ~label:(Printf.sprintf "s%d" i) ~n:1;
    let da, _ = V.Reconcile.sync_dags V.Reconcile.Digest (V.Node.dag a) (V.Node.dag b) in
    let db, _ = V.Reconcile.sync_dags V.Reconcile.Digest (V.Node.dag b) (V.Node.dag a) in
    (* Re-inject the merged DAGs through the node receive path. *)
    V.Node.receive_all a ~now:(V.Timestamp.of_ms 100_000L) (List.of_seq (V.Dag.topo_seq da));
    V.Node.receive_all b ~now:(V.Timestamp.of_ms 100_000L) (List.of_seq (V.Dag.topo_seq db))
  done;
  Workload.append_chain a ~label:"priv-a" ~n:each;
  Workload.append_chain b ~label:"priv-b" ~n:each;
  (a, b)

let bidirectional mode a b =
  let da = V.Node.dag a and db = V.Node.dag b in
  let _, s1 = V.Reconcile.sync_dags mode da db in
  let _, s2 = V.Reconcile.sync_dags mode db da in
  V.Reconcile.add_stats s1 s2

let protocols : (string * V.Reconcile.mode) list =
  [
    ("naive (Alg. 1)", V.Reconcile.Naive);
    ("bloom", V.Reconcile.Bloom);
    ("digest", V.Reconcile.Digest);
  ]

let rows_for ~shared ~each =
  let naive_tx = ref 1 in
  List.map
    (fun (label, mode) ->
      let a, b = diverged_pair ~shared ~each in
      let s = bidirectional mode a b in
      let tx = s.V.Reconcile.bytes_sent + s.V.Reconcile.bytes_received in
      if V.Reconcile.Mode.equal mode V.Reconcile.Naive then naive_tx := tx;
      [
        Report.fi shared;
        Report.fi each;
        label;
        Report.fi s.V.Reconcile.rounds;
        Report.ff (kb tx);
        Report.fi s.V.Reconcile.redundant_blocks;
        Report.ff ~decimals:1 (float_of_int !naive_tx /. float_of_int (max 1 tx));
      ])
    protocols

let run ?(quick = false) () =
  let cases =
    if quick then [ (8, 4); (8, 16) ]
    else [ (8, 2); (8, 4); (8, 8); (8, 16); (8, 32); (32, 16) ]
  in
  {
    Report.id = "E8";
    title = "Reconciliation ablation: Alg. 1 vs bloom vs digest (mutual divergence)";
    claim =
      "both set-reconciliation protocols dominate level escalation, \
       increasingly so for deep divergence, and never re-ship a block; the \
       bloom request additionally stays sub-linear in DAG size and immune \
       to mutual-divergence depth";
    header =
      [
        "shared";
        "private each";
        "protocol";
        "rounds";
        "KB";
        "redundant";
        "vs naive";
      ];
    rows = List.concat_map (fun (shared, each) -> rows_for ~shared ~each) cases;
    notes =
      [
        "bidirectional sync (two pulls); redundant = re-received blocks";
        "bloom requests are ~10 bits per held block at 1% false-positive rate";
      ];
    registry = [];
  }
