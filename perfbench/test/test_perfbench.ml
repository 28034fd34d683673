open Perfbench

let close_to = Alcotest.float 1e-9

(* Nearest-rank percentiles and the ten-beyond rule. *)
let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option close_to)) "p50 of 1..100" (Some 50.) (Stats.percentile xs 50.);
  Alcotest.(check (option close_to)) "p99 of 1..100" (Some 99.) (Stats.percentile xs 99.);
  Alcotest.(check (option close_to)) "p100 is the max" (Some 100.) (Stats.percentile xs 100.);
  Alcotest.(check (option close_to))
    "unsorted input" (Some 3.) (Stats.percentile [ 5.; 1.; 4.; 2.; 3. ] 50.);
  Alcotest.(check (option close_to)) "empty" None (Stats.percentile [] 50.);
  let tail n = Stats.supported_tail ~n in
  Alcotest.(check (option close_to)) "1000 samples support p99" (Some 99.) (tail 1000);
  Alcotest.(check (option close_to)) "999 samples only p95" (Some 95.) (tail 999);
  Alcotest.(check (option close_to)) "200 samples support p95" (Some 95.) (tail 200);
  Alcotest.(check (option close_to)) "10000 samples support p99.9" (Some 99.9) (tail 10_000);
  Alcotest.(check (option close_to)) "100 samples support p90" (Some 90.) (tail 100);
  Alcotest.(check (option close_to)) "20 samples support p50" (Some 50.) (tail 20);
  Alcotest.(check (option close_to)) "14 samples support nothing" None (tail 14)

let test_per_block () =
  Alcotest.(check (option close_to))
    "0 and 2 blocks" (Some 4.)
    (Stats.per_block ~cost:[ 4.; 6.; 2. ] ~blocks:[ 0; 2; 1 ]);
  Alcotest.(check (option close_to)) "no block moved" None
    (Stats.per_block ~cost:[ 1.; 2. ] ~blocks:[ 0; 0 ])

let test_proc_parsing () =
  let stat = "42 (a b) c) S 1 1 1 0 -1 4194304 10 0 0 0 173 29 0 0 20 0 1 0 251274" in
  Alcotest.(check (option (pair int int))) "utime, stime" (Some (173, 29)) (Proc.parse_stat stat);
  Alcotest.(check (option (pair int int))) "garbage" None (Proc.parse_stat "no parens here");
  let status = "Name:\tmain.exe\nVmPeak:\t  400000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 12345) (Proc.parse_vmhwm status);
  Alcotest.(check (option int)) "absent" None (Proc.parse_vmhwm "Name:\tx\n");
  Alcotest.(check bool) "this process has a CPU account" true (Proc.cpu_s () >= 0.);
  Alcotest.(check bool) "and a peak RSS" true (Proc.vmhwm_mb () > 0.)

(* Every metric name and unit BENCHMARK.json declares, per class. *)
let end_to_end =
  [ ("setup_s", "s"); ("exchange_p50_ms", "ms"); ("exchange_p99_ms", "ms"); ("blocks_per_s", "1/s");
    ("cpu_ms_per_block", "ms"); ("wire_bytes_per_block", "B"); ("max_rss_mb", "MB");
    ("success_ratio", "ratio"); ("convergence_lag_s", "s") ]

let per_layer =
  [ ("crypto.verify_ms_per_block", "ms"); ("codec.encode_ms_per_block", "ms");
    ("codec.decode_ms_per_block", "ms"); ("sync.respond_ms_per_block", "ms");
    ("sync.rounds_per_exchange", "count"); ("sync.redundant_ratio", "ratio");
    ("engine.handle_us", "us"); ("engine.inputs_per_block", "count");
    ("node.receive_ms_per_block", "ms"); ("node.accept_ratio", "ratio");
    ("dag.add_ms_per_block", "ms"); ("dag.encode_ms_per_block", "ms");
    ("store.save_ms_per_block", "ms"); ("store.save_bytes_per_block", "B");
    ("store.journal_ms_per_block", "ms"); ("store.load_ms_per_block", "ms");
    ("obs.emit_us_per_block", "us"); ("obs.events_per_block", "count");
    ("loop.accept_ms_per_exchange", "ms"); ("loop.read_ms_per_exchange", "ms");
    ("loop.engine_step_ms_per_exchange", "ms"); ("loop.write_ms_per_exchange", "ms");
    ("loop.timer_ms_per_exchange", "ms"); ("loop.sweep_ms_per_exchange", "ms");
    ("loop.unattributed_ms_per_exchange", "ms"); ("loop.slow_iterations", "count");
    ("daemon.busy_ratio", "ratio"); ("gc.major_per_1k_blocks", "count"); ("gc.heap_mb", "MB");
    ("simnet.msgs_per_block", "count"); ("simnet.drop_ratio", "ratio");
    ("gossip.sessions_per_block", "count"); ("gossip.abort_ratio", "ratio");
    ("budget.explained_ratio", "ratio") ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_declared () =
  let doc = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun (n, u) ->
      let entry = Printf.sprintf "\"name\": %S,\n      \"unit\": %S" n u in
      Alcotest.(check bool) ("declared " ^ n) true (contains doc entry))
    (end_to_end @ per_layer)

let tiny =
  [ "--work"; "smoke_work"; "--seconds"; "0.5"; "--seed"; "7"; "--replica-blocks"; "20";
    "--creators"; "4"; "--fleet-side"; "3"; "--fleet-appends"; "5"; "--fleet-heal-ms"; "3000";
    "--fleet-horizon-ms"; "60000" ]

let smoke workload trace () =
  let argv =
    Array.of_list
      ("perfbench" :: "--workload" :: workload :: "--trace" :: string_of_int trace :: tiny)
  in
  let fs = Result.get_ok (Cli.flags argv) in
  let r = Report.finish (Cli.run_workload fs) in
  Alcotest.(check bool) "correct" true r.Report.correct;
  Alcotest.(check int) "no failures" 0 r.Report.failed;
  Alcotest.(check bool) "attempted" true (r.Report.attempted >= 1);
  let got = List.map (fun (x : Report.metric) -> (x.Report.name, x.Report.unit)) r.Report.metrics in
  Alcotest.(check (list (pair string string)))
    "metric names and units" (if trace = 1 then per_layer else end_to_end) got;
  let e = Report.to_json r in
  Alcotest.(check bool) "one JSON line" false (String.contains e '\n')

let () =
  (* The smoke pass spawns this same binary as its daemon and fixture
     children. *)
  if Array.exists (( = ) "--role") Sys.argv then exit (Cli.main Sys.argv);
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles, ten-beyond rule" `Quick test_percentiles;
          Alcotest.test_case "per-block normalisation" `Quick test_per_block;
          Alcotest.test_case "rusage and VmHWM parsing" `Quick test_proc_parsing;
        ] );
      ( "smoke",
        Alcotest.test_case "every metric declared in BENCHMARK.json" `Quick test_declared
        :: List.concat_map
             (fun w ->
               [
                 Alcotest.test_case (w ^ " end-to-end metrics") `Quick (smoke w 0);
                 Alcotest.test_case (w ^ " per-layer metrics") `Quick (smoke w 1);
               ])
             [ "catch-up"; "fleet-sim" ] );
    ]
