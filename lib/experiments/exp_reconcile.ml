module V = Vegvisir

let kb bytes = float_of_int bytes /. 1024.

let full_dag_bytes dag =
  Seq.fold_left (fun acc b -> acc + V.Block.byte_size b) 0 (V.Dag.blocks_seq dag)

let run_depth d =
  let a, b, _genesis = Workload.offline_pair () in
  Workload.append_chain b ~label:"b" ~n:d;
  let dag_a = V.Node.dag a and dag_b = V.Node.dag b in
  let _, naive = V.Reconcile.sync_dags V.Reconcile.Naive dag_a dag_b in
  let merged, digest = V.Reconcile.sync_dags V.Reconcile.Digest dag_a dag_b in
  assert (V.Dag.cardinal merged = V.Dag.cardinal dag_b);
  (naive, digest, full_dag_bytes dag_b)

let row d =
  let naive, digest, full = run_depth d in
  let tx s = s.V.Reconcile.bytes_sent + s.V.Reconcile.bytes_received in
  [
    Report.fi d;
    Report.fi naive.V.Reconcile.rounds;
    Report.ff (kb (tx naive));
    Report.fi naive.V.Reconcile.redundant_blocks;
    Report.fi digest.V.Reconcile.rounds;
    Report.ff (kb (tx digest));
    Report.ff (kb full);
  ]

let run ?(quick = false) () =
  let depths = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  {
    Report.id = "E2";
    title = "Reconciliation cost vs divergence depth (Alg. 1, Fig. 3)";
    claim =
      "level escalation bridges any gap; cost grows with divergence depth \
       and stays far below exchanging the whole DAG for shallow divergence";
    header =
      [
        "depth";
        "naive rounds";
        "naive KB";
        "redundant blks";
        "digest rounds";
        "digest KB";
        "full-DAG KB";
      ];
    rows = List.map row depths;
    notes =
      [
        "divergence: responder is ahead by <depth> chained blocks";
        "naive = paper's Algorithm 1; digest = height-interval digest \
         narrowing, a future-work variant (§VI)";
      ];
    registry = [];
  }
