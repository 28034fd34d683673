(* Benchmark harness.

   Two layers, both driven from this one executable:

   - micro-benchmarks (Bechamel, one [Test.make] per substrate operation:
     hashing, signatures, block construction, DAG queries, CSM
     application, reconciliation) — the cost model behind the paper's
     "low-power" claim;
   - the macro experiment tables E1-E11 (one per paper figure/claim/
     substrate, see DESIGN.md §5), run in quick mode.
     `bin/experiments.exe` runs the same tables with full parameters.

   Usage:
     dune exec bench/main.exe                micro + quick experiments
     dune exec bench/main.exe -- micro       micro benchmarks only
     dune exec bench/main.exe -- experiments quick experiment tables only
     dune exec bench/main.exe -- obs-micro   instrumentation rows only, to
                                             BENCH_obs.fresh.json (the
                                             @bench-check drift gate)
     dune exec bench/main.exe -- core-micro  hashing, verification and
                                             batch-intake rows only, to
                                             BENCH_core.fresh.json (the
                                             same gate)
     bench/main.exe daemon DIR               serve DIR until SIGINT: the
                                             daemon process M13 starts *)

open Bechamel
open Toolkit
module V = Vegvisir
module Crypto = Vegvisir_crypto
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema
module Obs = Vegvisir_obs

(* ------------------------------------------------------------------ *)
(* Fixtures (built once, outside the timed regions)                     *)

let payload_64 = String.make 64 'x'
let payload_4k = String.make 4096 'x'

let wots_sk, wots_pk = Crypto.Wots.derive ~seed:"bench-wots"
let wots_sig = Crypto.Wots.sign wots_sk "bench message"

let mss_pk = snd (Crypto.Mss.generate ~height:8 ~seed:"bench-mss-verify")

let mss_sig =
  let sk, _ = Crypto.Mss.generate ~height:8 ~seed:"bench-mss-verify" in
  Crypto.Mss.sign sk "bench message"

(* A fresh exhaustible key per run would distort the numbers; signing is
   benchmarked over a large key consumed leaf by leaf. *)
let mss_signing_key =
  fst (Crypto.Mss.generate ~height:14 ~seed:"bench-mss-sign")

let signer = V.Signer.oracle ~signature_size:64 ~id:"bench" ()
let cert = V.Certificate.self_signed ~signer ~role:"ca"
let log_spec = Schema.spec Schema.Gset Value.T_string

let genesis =
  V.Node.genesis_block ~signer ~cert ~timestamp:(V.Timestamp.of_ms 0L)
    ~extra:[ V.Transaction.create_crdt ~name:"log" log_spec ]
    ()

let tx n = V.Transaction.make ~crdt:"log" ~op:"add" [ Value.String ("e" ^ string_of_int n) ]

(* A linear chain of [n] blocks over the genesis. *)
let chain_dag n =
  let dag = ref (Result.get_ok (V.Dag.add V.Dag.empty genesis)) in
  let parent = ref genesis.V.Block.hash in
  for i = 1 to n do
    let b =
      V.Block.create ~signer ~creator:cert.V.Certificate.user_id
        ~timestamp:(V.Timestamp.of_ms (Int64.of_int (i * 10)))
        ~parents:[ !parent ] [ tx i ]
    in
    dag := Result.get_ok (V.Dag.add !dag b);
    parent := b.V.Block.hash
  done;
  !dag

let dag_1k = chain_dag 1000
let dag_16 = chain_dag 16
let dag_genesis_only = Result.get_ok (V.Dag.add V.Dag.empty genesis)

let block_for_decode =
  V.Block.create ~signer ~creator:cert.V.Certificate.user_id
    ~timestamp:(V.Timestamp.of_ms 10L)
    ~parents:[ genesis.V.Block.hash ]
    [ tx 1; tx 2; tx 3 ]

let block_raw = V.Block.to_string block_for_decode

let csm_after_genesis = fst (V.Csm.apply_block V.Csm.empty genesis)

let value_sample =
  Value.List
    [
      Value.Pair (Value.String "key", Value.Int 42);
      Value.Bytes (String.make 64 '\x7f');
      Value.List [ Value.Bool true; Value.Float 3.14 ];
    ]

let value_raw = Value.to_string value_sample

(* ------------------------------------------------------------------ *)
(* Micro benchmark definitions (M1-M7 in DESIGN.md)                     *)

let stage = Staged.stage

let wots_chain_start = Crypto.Sha256.digest "bench-chain"

(* Row names say which SHA-256 kernel they timed. An unsuffixed row ran
   the OCaml word kernel; a row timed on the SHA-NI kernel ends in
   "-sha-ni". The M1 rows and wots-chain-15 time the OCaml kernel on
   every host (through Sha256.Portable), and the kernel this process
   runs beside them when that is another one. The other M2 rows run this
   process's kernel. A snapshot from one kind of host then never gates
   the other: the drift gate reports a row on one side only without
   failing. *)
let kernel_suffix =
  if String.equal Crypto.Sha256.kernel "ocaml" then "" else "-" ^ Crypto.Sha256.kernel

(* The OCaml kernel's rows, then this process's kernel's if it differs. *)
let per_kernel rows =
  rows (module Crypto.Sha256.Portable : Crypto.Sha256.S) ""
  @
  if String.equal kernel_suffix "" then []
  else rows (module Crypto.Sha256 : Crypto.Sha256.S) kernel_suffix

(* M1 and the M2 verify rows: what every received block pays, snapshotted
   to BENCH_core.json and re-measured by the @bench-check drift gate via
   core-micro. wots-chain-15 is one full-length W-OTS chain (15 steps),
   the unit a verify repeats. *)
let core_tests =
  [
    Test.make_grouped ~name:"M1-sha256"
      (per_kernel (fun (module K : Crypto.Sha256.S) suffix ->
           [
             Test.make ~name:("64B" ^ suffix) (stage (fun () -> K.digest payload_64));
             Test.make ~name:("4KB" ^ suffix) (stage (fun () -> K.digest payload_4k));
             Test.make ~name:("hmac-64B" ^ suffix)
               (stage (fun () -> K.hmac ~key:"k" payload_64));
           ]));
    Test.make_grouped ~name:"M2-signatures"
      ([
         Test.make ~name:("wots-verify" ^ kernel_suffix)
           (stage (fun () -> Crypto.Wots.verify wots_pk "bench message" wots_sig));
         Test.make ~name:("mss-verify" ^ kernel_suffix)
           (stage (fun () -> Crypto.Mss.verify mss_pk "bench message" mss_sig));
       ]
      @ per_kernel (fun (module K : Crypto.Sha256.S) suffix ->
            [
              Test.make ~name:("wots-chain-15" ^ suffix)
                (stage
                   (let v = Bytes.of_string wots_chain_start
                    and steps = String.make 1 (Char.chr Crypto.Wots.chain_max) in
                    fun () -> K.iterate ~prefix:"wots-chain" v steps));
            ]));
  ]

(* The catch-up client's Deliver: a 200-block MSS batch (a height-8 CA's
   genesis and 199 blocks on it) taken into a fresh node, by the batch
   intake and by a fold of Node.receive over the same list. Built on
   first use; keygen and signing take about half a second. *)
let intake_batch =
  lazy
    (let ca = V.Signer.mss ~height:8 ~seed:"bench-intake" () in
     let ca_cert = V.Certificate.self_signed ~signer:ca ~role:"ca" in
     let g =
       V.Node.genesis_block ~signer:ca ~cert:ca_cert ~timestamp:(V.Timestamp.of_ms 0L)
         ~extra:[ V.Transaction.create_crdt ~name:"log" log_spec ]
         ()
     in
     let rec chain acc parent i =
       if i > 199 then List.rev acc
       else
         let b =
           V.Block.create ~signer:ca ~creator:ca_cert.V.Certificate.user_id
             ~timestamp:(V.Timestamp.of_ms (Int64.of_int (i * 10)))
             ~parents:[ parent ] [ tx i ]
         in
         chain (b :: acc) b.V.Block.hash (i + 1)
     in
     chain [ g ] g.V.Block.hash 1)

let intake_now = V.Timestamp.of_ms 1_000_000L

(* About 10-80 ms a call: a 4 s quota buys each row a dozen samples.
   mss-keygen-h8 derives a height-8 key's 256 W-OTS leaves, what every
   Node_store.load pays (four times over, at height 10) to re-derive
   its signer. *)
let intake_tests () =
  let batch = Lazy.force intake_batch in
  let fresh () = V.Node.create ~signer ~cert () in
  Test.make_grouped ~name:"M2-signatures"
    [
      Test.make ~name:("intake-200" ^ kernel_suffix)
        (stage (fun () -> V.Node.receive_all (fresh ()) ~now:intake_now batch));
      Test.make ~name:("intake-200-each" ^ kernel_suffix)
        (stage (fun () ->
             let n = fresh () in
             List.iter (fun b -> ignore (V.Node.receive n ~now:intake_now b)) batch));
      Test.make ~name:("mss-keygen-h8" ^ kernel_suffix)
        (stage (fun () -> Crypto.Mss.generate ~height:8 ~seed:"bench-mss-keygen"));
    ]

let tests =
  [
    Test.make_grouped ~name:"M2-signatures"
      [
        Test.make ~name:("wots-sign" ^ kernel_suffix)
          (stage (fun () -> Crypto.Wots.sign wots_sk payload_64));
        Test.make ~name:("mss-sign" ^ kernel_suffix)
          (stage (fun () -> Crypto.Mss.sign mss_signing_key payload_64));
      ];
    Test.make_grouped ~name:"M3-blocks"
      [
        Test.make ~name:"create+sign+hash"
          (stage (fun () ->
               V.Block.create ~signer ~creator:cert.V.Certificate.user_id
                 ~timestamp:(V.Timestamp.of_ms 10L)
                 ~parents:[ genesis.V.Block.hash ]
                 [ tx 1 ]));
        Test.make ~name:"decode" (stage (fun () -> V.Block.of_string block_raw));
        Test.make ~name:"value-encode" (stage (fun () -> Value.to_string value_sample));
        Test.make ~name:"value-decode" (stage (fun () -> Value.of_string value_raw));
      ];
    Test.make_grouped ~name:"M4-dag"
      [
        Test.make ~name:"add-block"
          (stage (fun () ->
               V.Dag.add dag_genesis_only
                 (V.Block.create ~signer ~creator:cert.V.Certificate.user_id
                    ~timestamp:(V.Timestamp.of_ms 10L)
                    ~parents:[ genesis.V.Block.hash ]
                    [])));
        Test.make ~name:"frontier-1k" (stage (fun () -> V.Dag.frontier dag_1k));
        Test.make ~name:"level-frontier-8-of-1k"
          (stage (fun () -> V.Dag.level_frontier dag_1k 8));
        Test.make ~name:"ancestors-1k"
          (stage (fun () ->
               V.Dag.ancestors dag_1k
                 (V.Hash_id.Set.choose (V.Dag.frontier dag_1k))));
        Test.make ~name:"topo-order-1k" (stage (fun () -> V.Dag.topo_order dag_1k));
      ];
    Test.make_grouped ~name:"M5-crdt"
      [
        Test.make ~name:"bloom-add"
          (stage
             (let bloom = Crypto.Bloom.create ~expected:1000 ~fp_rate:0.01 in
              fun () -> Crypto.Bloom.add bloom payload_64));
        Test.make ~name:"bloom-mem"
          (stage
             (let bloom = Crypto.Bloom.create ~expected:1000 ~fp_rate:0.01 in
              Crypto.Bloom.add bloom payload_64;
              fun () -> Crypto.Bloom.mem bloom payload_64));
        Test.make ~name:"rga-insert-100th"
          (stage
             (let rga = ref Vegvisir_crdt.Rga.empty in
              let anchor = ref Vegvisir_crdt.Rga.head in
              for i = 1 to 100 do
                let id = Printf.sprintf "id-%d" i in
                rga := Vegvisir_crdt.Rga.insert ~anchor:!anchor ~id
                    (Value.String "x") !rga;
                anchor := id
              done;
              let n = ref 0 in
              fun () ->
                incr n;
                Vegvisir_crdt.Rga.insert ~anchor:!anchor
                  ~id:(Printf.sprintf "bench-%d" !n) (Value.String "y") !rga));
        Test.make ~name:"rga-to-list-100"
          (stage
             (let rga = ref Vegvisir_crdt.Rga.empty in
              let anchor = ref Vegvisir_crdt.Rga.head in
              for i = 1 to 100 do
                let id = Printf.sprintf "id-%d" i in
                rga := Vegvisir_crdt.Rga.insert ~anchor:!anchor ~id
                    (Value.String "x") !rga;
                anchor := id
              done;
              fun () -> Vegvisir_crdt.Rga.to_list !rga));
      ];
    Test.make_grouped ~name:"M6-csm"
      [
        Test.make ~name:"apply-3tx-block"
          (stage (fun () -> V.Csm.apply_block csm_after_genesis block_for_decode));
      ];
    Test.make_grouped ~name:"M7-reconcile"
      [
        Test.make ~name:"naive-depth16"
          (stage (fun () -> V.Reconcile.sync_dags V.Reconcile.Naive dag_genesis_only dag_16));
        Test.make ~name:"bloom-depth16"
          (stage (fun () -> V.Reconcile.sync_dags V.Reconcile.Bloom dag_genesis_only dag_16));
        Test.make ~name:"digest-depth16"
          (stage (fun () -> V.Reconcile.sync_dags V.Reconcile.Digest dag_genesis_only dag_16));
        Test.make ~name:"respond-frontier-1k"
          (stage (fun () ->
               V.Reconcile.respond dag_1k (V.Reconcile.Frontier_request { level = 4 })));
      ];
  ]

(* ------------------------------------------------------------------ *)
(* M15-sync: sync-strategy hot paths (snapshotted to BENCH_net.json
   and re-measured by the @bench-check drift gate via sync-micro).
   The converged leg is the steady-state cost the daemon pays on every
   anti-entropy round against an in-sync peer: one digest request over
   a 1k-block replica, one empty reply, no blocks. Neither replica has
   moved since the last round, so both whole-range digests are the
   snapshot's memo; respond-digest-1k is the cold digest beside it.    *)

(* dag_16's blocks in topological order, genesis left out. *)
let dag_16_hashes =
  List.filter_map
    (fun (b : V.Block.t) -> if V.Block.is_genesis b then None else Some b.V.Block.hash)
    (V.Dag.topo_order dag_16)

(* A 4,000-block chain a fresh replica pulls, newest first (as gap
   recovery collects it): ordering it parents first is one pass and a
   sort, where emitting it round by round cost one scan per level. *)
let chain_4k_pulled =
  List.rev
    (List.filter (fun b -> not (V.Block.is_genesis b)) (V.Dag.topo_order (chain_dag 4000)))

let sync_tests =
  Test.make_grouped ~name:"M15-sync"
    [
      Test.make ~name:"pull-order-chain-4k"
        (stage (fun () -> V.Reconcile.insertable_order dag_genesis_only chain_4k_pulled));
      Test.make ~name:"digest-depth16"
        (stage (fun () ->
             V.Reconcile.sync_dags V.Reconcile.Digest dag_genesis_only dag_16));
      Test.make ~name:"digest-converged-1k"
        (stage (fun () -> V.Reconcile.sync_dags V.Reconcile.Digest dag_1k dag_1k));
      Test.make ~name:"respond-digest-1k"
        (stage (fun () ->
             V.Reconcile.respond dag_1k
               (V.Reconcile.Digest_request { upto = 0; intervals = [] })));
      (* An honest initiator names its hashes in ascending order
         ([Hash_id.Set.elements]); any other order pays for a set of
         the hashes seen, which the -unsorted leg keeps in view. *)
      Test.make ~name:"respond-blocks-16"
        (stage
           (let hashes = List.sort V.Hash_id.compare dag_16_hashes in
            fun () -> V.Reconcile.respond dag_16 (V.Reconcile.Blocks_request { hashes })));
      Test.make ~name:"respond-blocks-16-unsorted"
        (stage
           (let hashes = dag_16_hashes in
            fun () -> V.Reconcile.respond dag_16 (V.Reconcile.Blocks_request { hashes })));
    ]

(* ------------------------------------------------------------------ *)
(* M8-obs: telemetry overhead (also snapshotted to BENCH_obs.json)      *)

(* The emit path below is the full production pipeline: bus fan-out to
   the stats deriver and a ring sink. *)
let obs_ctx =
  let ctx = Obs.Context.create () in
  let ring = Obs.Sink.Ring.create ~capacity:1024 in
  Obs.Context.attach ctx (Obs.Sink.Ring.sink ring);
  ctx

(* A Net event: derived into counters. *)
let obs_net_event = Obs.Event.Net_sent { src = "0"; dst = "1"; bytes = 512 }

let obs_block_event =
  Obs.Event.Block
    {
      node = "0";
      phase = Obs.Event.Delivered;
      block = genesis.V.Block.hash;
      peer = Some "1";
    }

let obs_registry = Obs.Registry.create ()
let obs_counter = Obs.Registry.counter obs_registry ~node:"0" "bench.counter"

let obs_hist =
  Obs.Registry.histogram obs_registry ~node:"0"
    ~buckets:[ 1.; 5.; 10.; 50.; 100.; 500.; 1000. ]
    "bench.hist"

(* The block events one 201-block pull journals (received, validated
   and delivered for each block), under one wall-clock stamp. *)
let journal_batch_603 =
  List.concat
    (List.init 201 (fun i ->
         let block = V.Hash_id.digest (string_of_int i) in
         List.map
           (fun phase -> Obs.Event.Block { node = "db7fbc69"; phase; block; peer = Some "21e5e6fd" })
           Obs.Event.[ Received; Validated; Delivered ]))

let obs_tests =
  Test.make_grouped ~name:"M8-obs"
    [
      Test.make ~name:"journal-batch-603"
        (stage
           (let buf = Buffer.create 131_072 in
            fun () ->
              Buffer.clear buf;
              Obs.Event.to_json_lines buf ~ts:1729400000123.456 journal_batch_603));
      Test.make ~name:"bus-emit"
        (stage (fun () -> Obs.Context.emit obs_ctx ~ts:1. obs_net_event));
      Test.make ~name:"registry-counter-incr"
        (stage (fun () -> Obs.Registry.incr obs_counter));
      Test.make ~name:"registry-histogram-observe"
        (stage (fun () -> Obs.Registry.observe obs_hist 42.));
      Test.make ~name:"event-to-json"
        (stage (fun () -> Obs.Event.to_json ~ts:12.5 obs_block_event));
    ]

(* ------------------------------------------------------------------ *)
(* M10-health: the monitor fold vs a null sink on the same bus — the
   marginal per-event cost of the derived health metrics.               *)

let health_null_bus =
  let bus = Obs.Bus.create () in
  Obs.Bus.attach bus Obs.Sink.null;
  bus

let health_monitor_bus =
  let bus = Obs.Bus.create () in
  let monitor =
    Obs.Monitor.create ~nodes:(List.init 8 string_of_int) ()
  in
  Obs.Bus.attach bus (Obs.Monitor.sink monitor);
  bus

(* Monotone timestamps without a clock read in the loop: the monitor's
   sampling path only compares against the last seen value. *)
let health_ts = ref 0.

let health_tick () =
  health_ts := !health_ts +. 1.;
  !health_ts

let health_tests =
  Test.make_grouped ~name:"M10-health"
    [
      Test.make ~name:"emit-net-null"
        (stage (fun () ->
             Obs.Bus.emit health_null_bus ~ts:(health_tick ()) obs_net_event));
      Test.make ~name:"emit-net-monitor"
        (stage (fun () ->
             Obs.Bus.emit health_monitor_bus ~ts:(health_tick ()) obs_net_event));
      Test.make ~name:"emit-block-null"
        (stage (fun () ->
             Obs.Bus.emit health_null_bus ~ts:(health_tick ()) obs_block_event));
      Test.make ~name:"emit-block-monitor"
        (stage (fun () ->
             Obs.Bus.emit health_monitor_bus ~ts:(health_tick ())
               obs_block_event));
    ]

(* ------------------------------------------------------------------ *)
(* M14-live-health: the daemon's live bus — monitor AND scoreboard
   attached, as Event_loop.create wires it — vs the same null sink
   baseline. The marginal cost of streaming health on every journaled
   event, plus the direct scoreboard fold and the /health render.       *)

let live_bus =
  let bus = Obs.Bus.create () in
  let monitor = Obs.Monitor.create ~nodes:[ "0" ] () in
  let scoreboard = Obs.Scoreboard.create ~me:"0" () in
  Obs.Bus.attach bus (Obs.Monitor.sink monitor);
  Obs.Bus.attach bus (Obs.Scoreboard.sink scoreboard);
  bus

let obs_session_event =
  Obs.Event.Session_completed
    { node = "0"; peer = "1"; generation = 1; blocks = 4; duration_ms = 12.5 }

let live_scoreboard = Obs.Scoreboard.create ~me:"0" ()

(* Render fixtures: a monitor+scoreboard pair with a little state, so
   the /health JSON legs measure formatting, not empty-struct printing. *)
let render_monitor, render_scoreboard =
  let m = Obs.Monitor.create ~nodes:[ "0"; "1" ] () in
  let s = Obs.Scoreboard.create ~me:"0" () in
  List.iteri
    (fun i ev ->
      let ts = float_of_int (i + 1) in
      Obs.Monitor.observe m ~ts ev;
      Obs.Scoreboard.observe s ~ts ev)
    [
      obs_block_event;
      obs_session_event;
      Obs.Event.Sync_completed { node = "0"; peer = "1"; pulled = 3; served = 1 };
    ];
  (m, s)

let live_tests =
  Test.make_grouped ~name:"M14-live-health"
    [
      Test.make ~name:"emit-net-live"
        (stage (fun () ->
             Obs.Bus.emit live_bus ~ts:(health_tick ()) obs_net_event));
      Test.make ~name:"emit-session-null"
        (stage (fun () ->
             Obs.Bus.emit health_null_bus ~ts:(health_tick ()) obs_session_event));
      Test.make ~name:"emit-session-live"
        (stage (fun () ->
             Obs.Bus.emit live_bus ~ts:(health_tick ()) obs_session_event));
      Test.make ~name:"emit-block-live"
        (stage (fun () ->
             Obs.Bus.emit live_bus ~ts:(health_tick ()) obs_block_event));
      Test.make ~name:"scoreboard-observe"
        (stage (fun () ->
             Obs.Scoreboard.observe live_scoreboard ~ts:(health_tick ())
               obs_session_event));
      Test.make ~name:"render-health-json"
        (stage (fun () ->
             ignore (Obs.Health.to_json render_monitor);
             Obs.Scoreboard.to_json render_scoreboard));
    ]

(* ------------------------------------------------------------------ *)
(* M16-trace: the span layer's marginal cost — a span collector on the
   bus vs the same null-sink baseline, the always-on flight ring, and
   the offline Chrome export. The emit legs are the always-on daemon
   path; the export leg is the offline `vv trace --chrome` cost.        *)

let trace_bus =
  let bus = Obs.Bus.create () in
  let coll = Obs.Span.Collector.create ~capacity:1024 in
  Obs.Bus.attach bus (Obs.Span.Collector.sink coll);
  bus

let flight_bus =
  let bus = Obs.Bus.create () in
  let ring = Obs.Flight.create ~capacity:4096 () in
  Obs.Bus.attach bus (Obs.Flight.sink ring);
  bus

let obs_span_event =
  Obs.Event.Span
    {
      node = "0";
      trace = "aabbccddeeff0011";
      span = "1122334455667788";
      parent = Some "8877665544332211";
      name = "session.exchange";
      dur_ms = 12.5;
    }

let chrome_spans =
  Obs.Span.of_events
    (List.init 256 (fun i ->
         ( float_of_int i,
           if i mod 2 = 0 then obs_block_event else obs_span_event )))

let trace_tests =
  Test.make_grouped ~name:"M16-trace"
    [
      Test.make ~name:"emit-span-null"
        (stage (fun () ->
             Obs.Bus.emit health_null_bus ~ts:(health_tick ()) obs_span_event));
      Test.make ~name:"emit-span-collector"
        (stage (fun () ->
             Obs.Bus.emit trace_bus ~ts:(health_tick ()) obs_span_event));
      Test.make ~name:"emit-block-collector"
        (stage (fun () ->
             Obs.Bus.emit trace_bus ~ts:(health_tick ()) obs_block_event));
      Test.make ~name:"emit-flight-ring"
        (stage (fun () ->
             Obs.Bus.emit flight_bus ~ts:(health_tick ()) obs_net_event));
      Test.make ~name:"chrome-export-256"
        (stage (fun () -> Obs.Span.chrome_trace chrome_spans));
    ]

(* ------------------------------------------------------------------ *)
(* M9-dag: incremental DAG indices vs full-scan oracles (snapshotted to
   BENCH_dag.json). Fixtures are braided multi-creator DAGs at 5k and
   20k blocks; the naive legs recompute what the indices cache or the
   one-traversal closure replaces — the witness poll by descendant BFS,
   the multi-seed ancestry closure by per-hash ancestors unions.        *)

let braided ~n =
  let hashes = Array.make (n + 1) genesis.V.Block.hash in
  let dag = ref dag_genesis_only in
  let prev = ref genesis.V.Block.hash in
  let prev2 = ref genesis.V.Block.hash in
  for i = 1 to n do
    let creator = V.Hash_id.digest (Printf.sprintf "m9-creator-%d" (i mod 8)) in
    let parents =
      if i mod 5 = 0 && not (V.Hash_id.equal !prev !prev2) then [ !prev; !prev2 ]
      else [ !prev ]
    in
    let b =
      V.Block.create ~signer ~creator
        ~timestamp:(V.Timestamp.of_ms (Int64.of_int (i * 10)))
        ~parents []
    in
    dag := Result.get_ok (V.Dag.add !dag b);
    hashes.(i) <- b.V.Block.hash;
    prev2 := !prev;
    prev := b.V.Block.hash
  done;
  (!dag, hashes)

let dag_5k, hashes_5k = braided ~n:5_000
let dag_20k, hashes_20k = braided ~n:20_000

(* Closure seeds for the below bench: a tip 100 blocks behind the head
   plus 15 deeper hashes, 50 blocks apart — 16 seeds whose ancestries
   overlap almost entirely, the shape offload and witness proofs ask. *)
let below_seeds hashes n =
  hashes.(n - 100) :: List.init 15 (fun k -> hashes.(n - 100 - ((k + 1) * 50)))

let seeds_5k = below_seeds hashes_5k 5_000
let seeds_20k = below_seeds hashes_20k 20_000

(* Steady state: the next block comes from a creator already braided in,
   so the witness-credit walk cuts off after ~8 ancestors. (A creator's
   first-ever block instead pays one full walk — by design: that is the
   moment it starts witnessing all prior history.) *)
let next_block hashes n =
  V.Block.create ~signer
    ~creator:(V.Hash_id.digest (Printf.sprintf "m9-creator-%d" ((n + 1) mod 8)))
    ~timestamp:(V.Timestamp.of_ms (Int64.of_int ((n + 1) * 10)))
    ~parents:[ hashes.(n) ] []

let next_5k = next_block hashes_5k 5_000
let next_20k = next_block hashes_20k 20_000
let mid_5k = hashes_5k.(2_500)
let mid_20k = hashes_20k.(10_000)

(* The witness index is built on a snapshot's first poll (or prune),
   then kept by [add]. The add and witness-poll rows time a replica that
   answers witness queries, so their fixtures are polled once here;
   [dag_5k_cold] is the same DAG never polled, whose next snapshot pays
   the build on its first poll. *)
let () = ignore (V.Witness.witness_count dag_5k mid_5k + V.Witness.witness_count dag_20k mid_20k)
let dag_5k_cold, _ = braided ~n:5_000

let dag_tests =
  Test.make_grouped ~name:"M9-dag"
    [
      Test.make ~name:"add-5k" (stage (fun () -> V.Dag.add dag_5k next_5k));
      Test.make ~name:"add-20k" (stage (fun () -> V.Dag.add dag_20k next_20k));
      Test.make ~name:"witness-poll-5k"
        (stage (fun () -> V.Witness.witness_count dag_5k mid_5k));
      (* One add (~10 µs) makes a fresh snapshot, then its first poll
         builds the index from the 5,001 resident blocks. *)
      Test.make ~name:"witness-first-poll-5k"
        (stage (fun () ->
             V.Witness.witness_count (Result.get_ok (V.Dag.add dag_5k_cold next_5k)) mid_5k));
      Test.make ~name:"witness-poll-naive-5k"
        (stage (fun () -> V.Witness.oracle_witnesses dag_5k mid_5k));
      Test.make ~name:"witness-poll-20k"
        (stage (fun () -> V.Witness.witness_count dag_20k mid_20k));
      Test.make ~name:"witness-poll-naive-20k"
        (stage (fun () -> V.Witness.oracle_witnesses dag_20k mid_20k));
      Test.make ~name:"below-5k" (stage (fun () -> V.Dag.below dag_5k seeds_5k));
      Test.make ~name:"below-naive-5k"
        (stage (fun () -> V.Dag.Oracle.below dag_5k seeds_5k));
      Test.make ~name:"below-20k" (stage (fun () -> V.Dag.below dag_20k seeds_20k));
      Test.make ~name:"below-naive-20k"
        (stage (fun () -> V.Dag.Oracle.below dag_20k seeds_20k));
    ]

(* ------------------------------------------------------------------ *)
(* M12-lint: full-repo interprocedural lint wall time (snapshotted to
   BENCH_lint.json). Sources are read once outside the timed region;
   the timed leg is the whole Driver.lint_project pipeline — parse,
   per-file rules, call-graph construction, SCC effect fixpoint,
   boundary and parallel-safety checks. The acceptance budget is 10 s
   per full-repo analysis; current cost is milliseconds.                *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_fixture =
  (* Only meaningful when run from the repo root (the usual `dune exec
     bench/main.exe`); from elsewhere the group is skipped. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let roots =
      List.filter Sys.file_exists [ "lib"; "bin"; "examples"; "bench" ]
    in
    let files = Veglint.Driver.collect_files roots in
    let side name = if Sys.file_exists name then Some (name, read_file name) else None in
    Some (List.map (fun p -> (p, read_file p)) files, side "lint-boundaries.sexp")
  end
  else None

let lint_tests =
  Option.map
    (fun (inputs, manifest) ->
      let findings = Veglint.Driver.lint_project ?manifest inputs in
      Test.make_grouped ~name:"M12-lint"
        [
          Test.make ~name:"full-repo"
            (stage (fun () ->
                 Veglint.Driver.lint_project ?manifest inputs));
          Test.make ~name:"render-json"
            (stage (fun () ->
                 Veglint.Driver.render_json ~files:(List.length inputs)
                   findings));
        ])
    lint_fixture

(* ------------------------------------------------------------------ *)
(* Runner: OLS estimate of ns/run per test, plain-text table            *)

(* OLS ns/run per test in a group, as [(name, ns, r2)] rows. The quota
   (seconds per test) must fit several samples of the slowest leg, or
   the fit has no variance to explain. *)
let estimate ?(quota = 0.5) test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.map
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
      in
      let r2 = Option.value (Analyze.OLS.r_square r) ~default:nan in
      (name, ns, r2))
    (List.sort compare rows)

let print_rows rows =
  List.iter
    (fun (name, ns, r2) ->
      Printf.printf "  %-42s %14.1f ns/run   (r2=%.3f)\n" name ns r2)
    rows

(* A micro snapshot tracked across PRs (BENCH_obs.json, BENCH_core.json):
   ops/sec is derived from the OLS ns/run estimate, so no extra clock
   reads. *)
let write_snapshot ~benchmark ~file rows =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"benchmark\": %s,\n  \"results\": ["
        (Obs.Event.json_string benchmark);
      List.iteri
        (fun i (name, ns, r2) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc
            "\n    {\"name\": %s, \"ns_per_op\": %.1f, \"ops_per_sec\": %.0f, \
             \"r2\": %.4f}"
            (Obs.Event.json_string name)
            ns (1e9 /. ns) r2)
        rows;
      output_string oc "\n  ]\n}\n");
  Printf.printf "  (snapshot written to %s)\n" file

(* The index-vs-oracle snapshot tracked across PRs. Speedups pair each
   indexed leg with its naive recomputation at the same DAG size. *)
let write_bench_dag rows =
  let find suffix =
    List.find_map
      (fun (name, ns, _) ->
        if String.length name >= String.length suffix
           && String.equal suffix
                (String.sub name
                   (String.length name - String.length suffix)
                   (String.length suffix))
        then Some ns
        else None)
      rows
  in
  let speedups =
    List.filter_map
      (fun (label, indexed, naive) ->
        match (find indexed, find naive) with
        | Some i, Some n -> Some (label, i, n)
        | _ -> None)
      [
        ("witness-poll-5k", "witness-poll-5k", "witness-poll-naive-5k");
        ("witness-poll-20k", "witness-poll-20k", "witness-poll-naive-20k");
        ("below-5k", "below-5k", "below-naive-5k");
        ("below-20k", "below-20k", "below-naive-20k");
      ]
  in
  let oc = open_out "BENCH_dag.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\n  \"benchmark\": \"M9-dag\",\n  \"results\": [";
      List.iteri
        (fun i (name, ns, r2) ->
          if i > 0 then output_string oc ",";
          (* r2 is nan when the quota allowed only one sample (the naive
             legs at 20k take most of a second each); keep the JSON valid. *)
          let r2 = if Float.is_nan r2 then 0.0 else r2 in
          Printf.fprintf oc
            "\n    {\"name\": %s, \"ns_per_op\": %.1f, \"ops_per_sec\": %.0f, \
             \"r2\": %.4f}"
            (Obs.Event.json_string name)
            ns (1e9 /. ns) r2)
        rows;
      output_string oc "\n  ],\n  \"speedups\": [";
      List.iteri
        (fun i (label, indexed_ns, naive_ns) ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc
            "\n    {\"name\": %s, \"indexed_ns\": %.1f, \"naive_ns\": %.1f, \
             \"speedup\": %.1f}"
            (Obs.Event.json_string label)
            indexed_ns naive_ns (naive_ns /. indexed_ns))
        speedups;
      output_string oc "\n  ]\n}\n");
  List.iter
    (fun (label, indexed_ns, naive_ns) ->
      Printf.printf "  %-42s %14.1fx speedup vs naive\n" label
        (naive_ns /. indexed_ns))
    speedups;
  Printf.printf "  (snapshot written to BENCH_dag.json)\n"

(* The full-repo lint cost tracked across PRs: seconds per analysis is
   the number the 10-second acceptance budget is written against. *)
let write_bench_lint ~files rows =
  let oc = open_out "BENCH_lint.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"benchmark\": \"M12-lint\",\n  \"files\": %d,\n  \"results\": ["
        files;
      List.iteri
        (fun i (name, ns, r2) ->
          if i > 0 then output_string oc ",";
          let r2 = if Float.is_nan r2 then 0.0 else r2 in
          Printf.fprintf oc
            "\n    {\"name\": %s, \"ns_per_op\": %.1f, \"seconds_per_op\": \
             %.6f, \"r2\": %.4f}"
            (Obs.Event.json_string name)
            ns (ns /. 1e9) r2)
        rows;
      output_string oc "\n  ]\n}\n");
  Printf.printf "  (snapshot written to BENCH_lint.json)\n"

(* ------------------------------------------------------------------ *)
(* M13-daemon: end-to-end exchange throughput against a live forked
   daemon over loopback (snapshotted to BENCH_net.json). One child
   process hosts the daemon event loop; this process runs a client
   event loop dialing C concurrent exchange sessions and times the
   wall clock from first dial to last session outcome. Unlike the
   Bechamel groups this is a macro measurement: real sockets, framing,
   signature verification, and store saves on both ends — the
   per-session overhead number the daemon's session budget is sized
   against.                                                            *)

module Cli = Vegvisir_cli

let daemon_concurrency = [ 8; 32; 64 ]

(* One results array holds both sections: M13 macro rows keep their
   concurrency keys; M15 micro rows carry name/ns_per_op — the shape
   check_drift.exe scans for, so only the micro rows are drift-gated. *)
let write_bench_net ?(file = "BENCH_net.json") ?(daemon_rows = []) sync_rows =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "{\n  \"benchmark\": \"M13-daemon+M15-sync\",\n  \"results\": [";
      let first = ref true in
      let sep () =
        if !first then first := false else output_string oc ","
      in
      List.iter
        (fun (c, secs, failed) ->
          sep ();
          Printf.fprintf oc
            "\n    {\"concurrency\": %d, \"sessions\": %d, \"failed\": %d, \
             \"seconds\": %.4f, \"sessions_per_sec\": %.1f, \
             \"ms_per_session\": %.3f}"
            c c failed secs
            (float_of_int c /. secs)
            (secs *. 1000. /. float_of_int c))
        daemon_rows;
      List.iter
        (fun (name, ns, r2) ->
          sep ();
          Printf.fprintf oc
            "\n    {\"name\": %s, \"ns_per_op\": %.1f, \"ops_per_sec\": %.0f, \
             \"r2\": %.4f}"
            (Obs.Event.json_string name)
            ns (1e9 /. ns) r2)
        sync_rows;
      output_string oc "\n  ]\n}\n");
  Printf.printf "  (snapshot written to %s)\n" file

(* The [daemon DIR] role behind M13: serve the replica in DIR with
   buffered telemetry, print the bound port, and run until SIGINT. *)
let serve_daemon dir =
  match Cli.Node_store.load ~dir with
  | Error _ -> 1
  | Ok store -> (
    Cli.Node_store.buffer_telemetry store true;
    let loop = Cli.Event_loop.create ~store () in
    match Cli.Event_loop.listen_peers loop ~port:0 () with
    | Error _ -> 1
    | Ok port -> (
      Cli.Unix_compat.install_stop_handler (fun () -> Cli.Event_loop.request_stop loop);
      Printf.printf "%d\n%!" port;
      match Cli.Event_loop.run loop with
      | Ok () ->
        Cli.Node_store.buffer_telemetry store false;
        0
      | Error _ -> 1))

let run_daemon_bench ~sync_rows () =
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vegvisir-bench-daemon-%d" (Unix.getpid ()))
  in
  let ca_dir = Filename.concat tmp "daemon" in
  let client_dir = Filename.concat tmp "client" in
  (try Unix.mkdir tmp 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let ( let* ) = Result.bind in
  let setup () =
    let* _ca =
      Cli.Node_store.init ~dir:ca_dir ~seed:"bench-daemon-seed" ~height:6
        ~init_crdts:[ ("log", Schema.spec Schema.Gset Value.T_string) ]
        ()
    in
    let* client =
      Cli.Node_store.enroll ~ca_dir ~dir:client_dir ~seed:"bench-client-seed"
        ~height:6 ~role:"member" ()
    in
    let* _ =
      Cli.Node_store.append client ~crdt:"log" ~op:"add"
        [ Value.String "bench-block" ]
    in
    Ok client
  in
  match setup () with
  | Error e ->
    Printf.printf "  (M13-daemon skipped: %s)\n" e;
    (* Still snapshot the micro rows so the drift gate has a baseline. *)
    write_bench_net sync_rows
  | Ok client -> begin
    (* The daemon is this executable in its [daemon DIR] role, started
       with create_process: a process whose intake has spawned verifier
       domains cannot fork. It prints its port once it listens. *)
    let pr, pw = Unix.pipe ~cloexec:true () in
    let exe = Sys.executable_name in
    let daemon =
      Unix.create_process exe [| exe; "daemon"; ca_dir |] Unix.stdin pw Unix.stderr
    in
    Unix.close pw;
    let port =
      let buf = Buffer.create 8 and b = Bytes.create 1 in
      let rec go () =
        match Unix.read pr b 0 1 with
        | 0 -> ()
        | _ -> if Bytes.get b 0 = '\n' then () else begin
            Buffer.add_bytes buf b;
            go ()
          end
      in
      go ();
      Unix.close pr;
      int_of_string (Buffer.contents buf)
    in
    let leg concurrency =
      let loop = Cli.Event_loop.create ~store:client () in
      let t0 = Cli.Unix_compat.mono_ms () in
      let dial_failures = ref 0 in
      for _ = 1 to concurrency do
        match
          Cli.Event_loop.connect_exchange ~timeout_s:10. loop
            ~host:"127.0.0.1" ~port ()
        with
        | Ok _ -> ()
        | Error _ -> incr dial_failures
      done;
      let wanted = concurrency - !dial_failures in
      let r =
        Cli.Event_loop.run loop ~until:(fun st ->
            st.Cli.Event_loop.completed + st.Cli.Event_loop.failed >= wanted)
      in
      let t1 = Cli.Unix_compat.mono_ms () in
      let failed =
        !dial_failures
        + (Cli.Event_loop.stats loop).Cli.Event_loop.failed
        + (match r with Ok () -> 0 | Error _ -> wanted)
      in
      Cli.Event_loop.shutdown loop;
      (concurrency, (t1 -. t0) /. 1000., failed)
    in
    let rows = List.map leg daemon_concurrency in
    Unix.kill daemon Sys.sigint;
    ignore (Unix.waitpid [] daemon);
    List.iter
      (fun (c, secs, failed) ->
        Printf.printf
          "  %-42s %14.1f sessions/s   (%.2f ms/session%s)\n"
          (Printf.sprintf "exchange-x%d" c)
          (float_of_int c /. secs)
          (secs *. 1000. /. float_of_int c)
          (if failed > 0 then Printf.sprintf ", %d FAILED" failed else ""))
      rows;
    write_bench_net ~daemon_rows:rows sync_rows
  end

let obs_benchmark = "M8-obs+M10-health+M14-live-health+M16-trace"
let core_benchmark = "M1-sha256+M2-signatures"

(* The instrumentation rows alone, for the @bench-check drift gate: a
   fresh measurement written next to (never over) the tracked snapshot,
   which bench/check_drift.exe then diffs. *)
let run_obs_micro () =
  print_endline "== obs micro (ns per call, OLS estimate) ==";
  let rows =
    estimate obs_tests @ estimate health_tests @ estimate live_tests
    @ estimate trace_tests
  in
  print_rows rows;
  write_snapshot ~benchmark:obs_benchmark ~file:"BENCH_obs.fresh.json" rows

(* The M1/M2 core rows alone, for the @bench-check drift gate. *)
let core_rows () =
  List.sort compare (List.concat_map estimate core_tests @ estimate ~quota:4. (intake_tests ()))

let run_core_micro () =
  Printf.printf "== core micro (ns per call, OLS estimate; SHA-256 kernel: %s) ==\n"
    Crypto.Sha256.kernel;
  let rows = core_rows () in
  print_rows rows;
  write_snapshot ~benchmark:core_benchmark ~file:"BENCH_core.fresh.json" rows

(* The M15 rows alone, for the @bench-check drift gate: a fresh
   measurement written next to (never over) the tracked snapshot. *)
let run_sync_micro () =
  print_endline "== sync micro (ns per call, OLS estimate) ==";
  let rows = estimate sync_tests in
  print_rows rows;
  write_bench_net ~file:"BENCH_net.fresh.json" rows

let run_micro () =
  print_endline "== Micro-benchmarks (ns per call, OLS estimate) ==";
  let core_rows = core_rows () in
  print_rows core_rows;
  write_snapshot ~benchmark:core_benchmark ~file:"BENCH_core.json" core_rows;
  List.iter (fun test -> print_rows (estimate test)) tests;
  let obs_rows =
    estimate obs_tests @ estimate health_tests @ estimate live_tests
    @ estimate trace_tests
  in
  print_rows obs_rows;
  write_snapshot ~benchmark:obs_benchmark ~file:"BENCH_obs.json" obs_rows;
  (* The naive 20k leg takes ~0.7 s per call: a 4 s quota buys it three
     samples (1 + 2 + 3 runs) instead of one. *)
  let dag_rows = estimate ~quota:4. dag_tests in
  print_rows dag_rows;
  write_bench_dag dag_rows;
  (match (lint_tests, lint_fixture) with
  | Some group, Some (inputs, _) ->
    let lint_rows = estimate group in
    print_rows lint_rows;
    write_bench_lint ~files:(List.length inputs) lint_rows
  | _ -> print_endline "  (M12-lint skipped: not at the repo root)");
  let sync_rows = estimate sync_tests in
  print_rows sync_rows;
  print_endline "== M13-daemon (loopback exchange sessions vs a daemon process) ==";
  run_daemon_bench ~sync_rows ();
  print_newline ()

let () =
  let args = Array.to_list Sys.argv in
  (match args with _ :: "daemon" :: [ dir ] -> exit (serve_daemon dir) | _ -> ());
  if List.mem "obs-micro" args then begin
    run_obs_micro ();
    exit 0
  end;
  if List.mem "sync-micro" args then begin
    run_sync_micro ();
    exit 0
  end;
  if List.mem "core-micro" args then begin
    run_core_micro ();
    exit 0
  end;
  let micro_only = List.mem "micro" args in
  let experiments_only = List.mem "experiments" args in
  if not experiments_only then run_micro ();
  if not micro_only then begin
    print_endline
      "== Evaluation experiments (quick mode; bin/experiments.exe for full sweeps) ==";
    Vegvisir_experiments.All.run_all ~quick:true ()
  end
