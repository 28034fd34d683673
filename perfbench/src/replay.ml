(* The traced run: the inputs of the untraced run, fed again through the
   layers' public functions, in this process, with a span around every
   call. Nested layers are timed by separate calls on the same inputs
   (Signer.verify and Dag.add beside Node.receive, the codec and
   Sync_strategy.respond beside Peer_engine.handle, Dag.to_string
   beside Node_store.save), so that each layer's self time is its span
   minus the spans of the layers it calls. The budget in CPU-ms per
   block is set against the untraced cpu_ms_per_block; what the rows
   leave over is the named [unexplained] row. Spans stay in memory and
   are written once, at the end, with Obs.Span.chrome_trace. *)

open Vegvisir
module Obs = Vegvisir_obs
module Peer_engine = Vegvisir_engine.Peer_engine
module Node_store = Vegvisir_cli.Node_store
module Unix_compat = Vegvisir_cli.Unix_compat

let ( // ) = Filename.concat

(* {1 Spans} *)

let span_cap = 200_000

type tracer = {
  mutable spans : Obs.Span.t list;
  mutable kept : int;
  totals : (string, float) Hashtbl.t;  (** ms per span name *)
  counts : (string, int) Hashtbl.t;
  mutable seq : int;
}

let tracer () =
  { spans = []; kept = 0; totals = Hashtbl.create 16; counts = Hashtbl.create 16; seq = 0 }

let total tr name = Option.value ~default:0. (Hashtbl.find_opt tr.totals name)
let count tr name = Option.value ~default:0 (Hashtbl.find_opt tr.counts name)

let span tr ~trace ~node name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dur = (Unix.gettimeofday () -. t0) *. 1000. in
  Hashtbl.replace tr.totals name (total tr name +. dur);
  Hashtbl.replace tr.counts name (count tr name + 1);
  if tr.kept < span_cap then begin
    tr.seq <- tr.seq + 1;
    tr.kept <- tr.kept + 1;
    tr.spans <-
      {
        Obs.Span.trace;
        span = Obs.Span.derive ~trace ~node ~name:(name ^ "#" ^ string_of_int tr.seq);
        parent = Some (Obs.Span.root_of_trace trace);
        name;
        node;
        start_ms = t0 *. 1000.;
        dur_ms = dur;
      }
      :: tr.spans
  end;
  r

let write_chrome tr path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Obs.Span.chrome_trace (List.rev tr.spans)))

(* {1 Layer calls shared by every replay} *)

let verify_block node (b : Block.t) =
  match Node.membership node with
  | None -> false
  | Some m -> (
    match Membership.certificate m b.Block.creator with
    | None -> false
    | Some c -> Block.verify_signature ~public:c.Certificate.public ~scheme:c.Certificate.scheme b)

(* Intake of [blocks] by [node]: verify and Dag.add timed beside the
   Node.receive_all that does both (and the CSM apply). The side Dag.add
   chain starts from the replica before the intake; the verifies use the
   membership after it, which also knows creators enrolled in the same
   batch. *)
let intake tr ~trace ~who node ~now blocks =
  let before = Node.dag node in
  span tr ~trace ~node:who "node.receive" (fun () -> Node.receive_all node ~now blocks);
  ignore
    (List.fold_left
       (fun dag b ->
         ignore (span tr ~trace ~node:who "crypto.verify" (fun () -> verify_block node b));
         match span tr ~trace ~node:who "dag.add" (fun () -> Dag.add dag b) with
         | Ok d -> d
         | Error _ -> dag)
       before blocks)

(* A frame arriving at a peer whose replica is [dag]: decode, the
   responder's answer if it is a request, and the re-encoding of the
   message, each timed on its own. *)
let frame tr ~trace ~who ~dag ~framed bytes =
  match
    span tr ~trace ~node:who "codec.decode" (fun () ->
        Wire.decode_string Sync_strategy.decode_message bytes)
  with
  | None -> ()
  | Some msg ->
    if Sync_strategy.is_request msg then
      ignore (span tr ~trace ~node:who "sync.respond" (fun () -> Sync_strategy.respond dag msg));
    ignore
      (span tr ~trace ~node:who "codec.encode" (fun () ->
           let b = Buffer.create (String.length bytes) in
           Sync_strategy.encode_message b msg;
           if framed then Unix_compat.encode_frame (Buffer.contents b) else Buffer.contents b))

(* A context wired like the daemon's: monitor, scoreboard, flight ring
   and span collector on one bus. *)
let daemon_context ~me =
  let ctx = Obs.Context.create () in
  Obs.Context.attach ctx (Obs.Monitor.sink (Obs.Monitor.create ~nodes:[ me ] ()));
  Obs.Context.attach ctx (Obs.Scoreboard.sink (Obs.Scoreboard.create ~me ()));
  Obs.Context.attach ctx (Obs.Flight.sink (Obs.Flight.create ()));
  Obs.Context.attach ctx (Obs.Span.Collector.sink (Obs.Span.Collector.create ~capacity:1024));
  ctx

let emit_all tr ~me events =
  let ctx = daemon_context ~me in
  List.iter
    (fun (ts, ev) -> span tr ~trace:"obs" ~node:me "obs.emit" (fun () -> Obs.Context.emit ctx ~ts ev))
    events

(* {1 catch-up} *)

let or_fail = Catch_up.or_fail

type side = {
  who : string;
  node : Node.t;
  mutable eng : Peer_engine.t;
  mutable pulled : bool;
  mutable turned : bool;
}

let engine_config =
  { Peer_engine.Config.default with Peer_engine.Config.mode = Reconcile.Digest;
    stale_after_ms = Vegvisir_cli.Event_loop.default_config.Vegvisir_cli.Event_loop.stale_after_ms;
    session_timeout_ms = Vegvisir_cli.Event_loop.default_config.Vegvisir_cli.Event_loop.session_timeout_ms }

let new_side who node =
  {
    who;
    node;
    eng = Peer_engine.create ~config:engine_config ~user_id:(Node.user_id node) ~dag:(Node.dag node) ();
    pulled = false;
    turned = false;
  }

(* Loopback syscalls of one frame: the loop layer's share of moving it. *)
let io_frame a b bytes =
  let len = String.length bytes in
  let buf = Bytes.create (Int.min len 65536 |> Int.max 1) in
  let written = ref 0 and got = ref 0 in
  while !got < len do
    (if !written < len then
       match Unix_compat.write_nb a (Bytes.unsafe_of_string bytes) ~pos:!written ~len:(len - !written) with
       | Ok (`Wrote n) -> written := !written + n
       | Ok `Would_block | Error _ -> ());
    match Unix_compat.read_nb b buf ~pos:0 ~len:(Int.min (Bytes.length buf) (len - !got)) with
    | Ok (`Read n) -> got := !got + n
    | Ok `Would_block ->
      ignore (Unix_compat.wait_ready ~listeners:[] ~read:[ b ] ~write:[] ~timeout_s:0.01)
    | Ok `Eof | Error _ -> failwith "replay: loopback pair closed"
  done

(* One exchange over an in-memory frame pipe with the event loop's turn
   protocol: the client pulls, hands over with an empty frame, the
   daemon pulls back and closes with an empty frame. *)
let exchange tr ~trace ~listener c d =
  let conn_a, conn_b =
    span tr ~trace ~node:"loop" "loop.io" (fun () ->
        let port = Unix_compat.bound_port listener in
        let a = or_fail (Unix_compat.connect ~host:"127.0.0.1" ~port ()) in
        let b = or_fail (Unix_compat.accept listener) in
        Unix_compat.set_nonblocking a;
        Unix_compat.set_nonblocking b;
        (a, b))
  in
  c.eng <- Peer_engine.create ~config:engine_config ~user_id:(Node.user_id c.node) ~dag:(Node.dag c.node) ();
  d.eng <- Peer_engine.create ~config:engine_config ~user_id:(Node.user_id d.node) ~dag:(Node.dag d.node) ();
  List.iter (fun s -> s.pulled <- false; s.turned <- false) [ c; d ];
  let to_d = Queue.create () and to_c = Queue.create () in
  let outbox s = if s == c then to_d else to_c in
  let rec step s input =
    let eng, effects =
      span tr ~trace ~node:s.who "engine.handle" (fun () ->
          Peer_engine.handle s.eng ~now:(Unix_compat.mono_ms ()) ~dag:(Node.dag s.node) input)
    in
    s.eng <- eng;
    List.iter
      (function
        | Peer_engine.Send { bytes; _ } -> Queue.add bytes (outbox s)
        | Peer_engine.Deliver blocks -> intake tr ~trace ~who:s.who s.node ~now:(Catch_up.admit_now ()) blocks
        | Peer_engine.Session_done _ -> s.pulled <- true
        | Peer_engine.Set_timer _ | Peer_engine.Trace _ -> ())
      effects;
    if s.pulled && not s.turned then begin
      s.turned <- true;
      Queue.add "" (outbox s)
    end
  and deliver s q =
    match Queue.take_opt q with
    | None -> false
    | Some bytes ->
      span tr ~trace ~node:"loop" "loop.io" (fun () ->
          io_frame conn_a conn_b (Unix_compat.encode_frame bytes));
      if bytes = "" then begin
        if s == d then step d (Peer_engine.Tick { peer = Some 0 })
      end
      else begin
        frame tr ~trace ~who:s.who ~dag:(Node.dag s.node) ~framed:true bytes;
        step s (Peer_engine.Message_received { from = 0; bytes })
      end;
      true
  in
  step c (Peer_engine.Tick { peer = Some 0 });
  while deliver d to_d || deliver c to_c do () done;
  Unix_compat.close_conn conn_a;
  Unix_compat.close_conn conn_b

let sum_report (r : Catch_up.run) keys =
  List.fold_left (fun a k -> a +. Option.value ~default:0. (List.assoc_opt k r.Catch_up.daemon)) 0. keys

let metric = Report.m

let loop_metrics (r : Catch_up.run) =
  let exchanges = Float.max 1. (sum_report r [ "sessions_completed" ]) in
  let phase ph = sum_report r [ "loop." ^ ph ^ "_ms_sum" ] in
  let phases = List.fold_left (fun a ph -> a +. phase ph) 0. Daemon.phases in
  List.map (fun ph -> metric ("loop." ^ ph ^ "_ms_per_exchange") "ms" (phase ph /. exchanges)) Daemon.phases
  @ [
      metric "loop.unattributed_ms_per_exchange" "ms"
        (((sum_report r [ "cpu_s" ] *. 1000.) -. phases) /. exchanges);
      metric "loop.slow_iterations" "count" (sum_report r [ "loop.slow_iterations" ]);
      metric "daemon.busy_ratio" "ratio" (Report.div r.Catch_up.daemon_cpu_s r.Catch_up.window_s);
    ]

let zero names = List.map (fun (n, u) -> metric n u 0.) names

let net_na =
  zero
    [ ("simnet.msgs_per_block", "count"); ("simnet.drop_ratio", "ratio");
      ("gossip.sessions_per_block", "count"); ("gossip.abort_ratio", "ratio") ]

let budget_table ~workload ~rows ~cpu_ms_per_block =
  let explained = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  Printf.eprintf "%s budget (CPU-ms per block; untraced cpu_ms_per_block %.4f)\n" workload
    cpu_ms_per_block;
  List.iter (fun (n, v) -> Printf.eprintf "  %-22s %10.4f\n" n v) rows;
  Printf.eprintf "  %-22s %10.4f\n" "unexplained" (cpu_ms_per_block -. explained);
  Printf.eprintf "  %-22s %10.4f\n%!" "explained_ratio" (explained /. cpu_ms_per_block);
  explained /. cpu_ms_per_block

let e2e_value e2e name =
  match List.find_opt (fun (x : Report.metric) -> x.Report.name = name) e2e with
  | Some x -> x.Report.value
  | None -> Float.nan

let intake_counts node =
  let s = Node.stats node in
  (s.Node.accepted, s.Node.rejected + s.Node.duplicates)

let catch_up ~work ~fx ~(run : Catch_up.run) ~e2e =
  let tr = tracer () in
  let ddir = work // "replay-daemon" and cdir = work // "replay-client" in
  Fixture.install_daemon fx ~dir:ddir;
  let dstore =
    span tr ~trace:"setup" ~node:"daemon" "store.load" (fun () -> or_fail (Node_store.load ~dir:ddir))
  in
  Node_store.buffer_telemetry dstore true;
  let d = new_side "daemon" dstore.Node_store.node in
  let listener = or_fail (Unix_compat.listen ~port:0 ()) in
  let save_bytes = ref 0 in
  (* Intake by the pulling replicas only: what their loads admitted is
     left out, so duplicates in the pulls would show. *)
  let accepted = ref 0 and refused = ref 0 in
  let t_start = Unix.gettimeofday () and cpu0 = Daemon.self_cpu_s () in
  (* The replay gets as long as the untraced window; what it covers is
     normalised by what it replayed. *)
  let budget_s = Float.max 1. run.Catch_up.window_s in
  let rec go i acc =
    if i >= run.Catch_up.exchanges_total || Unix.gettimeofday () -. t_start > budget_s then acc
    else begin
      let trace = Printf.sprintf "catch-up-%d" i in
      Fixture.install_client fx ~dir:cdir;
      let client = or_fail (Node_store.load ~dir:cdir) in
      Node_store.buffer_telemetry client true;
      let c = new_side "client" client.Node_store.node in
      let a0, r0 = intake_counts c.node in
      exchange tr ~trace ~listener c d;
      let a1, r1 = intake_counts c.node in
      accepted := !accepted + a1 - a0;
      refused := !refused + r1 - r0;
      let pulled = Dag.cardinal (Node.dag c.node) - 1 in
      (* The client saves once per exchange. *)
      let s =
        span tr ~trace ~node:"client" "dag.encode" (fun () -> Dag.to_string (Node.dag c.node))
      in
      save_bytes := !save_bytes + String.length s;
      or_fail (span tr ~trace ~node:"client" "store.save" (fun () -> Node_store.save client));
      go (i + 1) (acc + pulled)
    end
  in
  let blocks = go 0 0 in
  Unix_compat.close_listener listener;
  let replay_s = Unix.gettimeofday () -. t_start and replay_cpu = Daemon.self_cpu_s () -. cpu0 in
  (* The journals the untraced run wrote, through the obs bus and back
     through the store's journal writer. The client directory holds the
     last exchange's journal; every exchange journals the same. *)
  let djournal = Node_store.load_trace ~dir:(work // "daemon") in
  let cjournal = Node_store.load_trace ~dir:(work // "client") in
  let journal =
    djournal @ List.concat (List.init run.Catch_up.exchanges_total (fun _ -> cjournal))
  in
  emit_all tr ~me:(Node_store.node_name dstore) journal;
  span tr ~trace:"journal" ~node:"daemon" "store.journal" (fun () ->
      List.iter (fun (_, ev) -> Node_store.record_all dstore [ ev ]) journal;
      Node_store.flush_trace dstore);
  let run_blocks = float_of_int (Int.max 1 blocks) in
  let pb name = total tr name /. run_blocks in
  let enc = pb "dag.encode" and save = pb "store.save" in
  (* The journals cover every exchange of the run, warm-up included:
     the blocks those exchanges moved. *)
  let journal_run_blocks = Float.max 1. run.Catch_up.wire_blocks in
  let obs = total tr "obs.emit" /. journal_run_blocks in
  let journal_ms = total tr "store.journal" /. journal_run_blocks in
  let crypto = pb "crypto.verify" and dag_add = pb "dag.add" in
  let codec = pb "codec.encode" +. pb "codec.decode" and sync = pb "sync.respond" in
  let rows =
    [
      ("crypto", crypto);
      ("codec", codec);
      ("sync", sync);
      ("engine (self)", Float.max 0. (pb "engine.handle" -. codec -. sync));
      ("node (self)", Float.max 0. (pb "node.receive" -. crypto -. dag_add));
      ("dag", dag_add +. enc);
      ("store (self)", Float.max 0. (save -. enc) +. journal_ms);
      ("obs", obs);
      ("loop io", pb "loop.io");
    ]
  in
  let cpu_pb = e2e_value e2e "cpu_ms_per_block" in
  let explained = budget_table ~workload:"catch-up" ~rows ~cpu_ms_per_block:cpu_pb in
  Printf.eprintf "catch-up traced replay: %d blocks, %.4f CPU-ms per block (untraced %.4f), %.1fs wall\n%!"
    blocks (replay_cpu *. 1000. /. run_blocks) cpu_pb replay_s;
  write_chrome tr (work // "trace-catch-up.json");
  let gen_heap = float_of_int run.Catch_up.gen_heap_words in
  let d_heap = sum_report run [ "gc_heap_words" ] in
  let rb = float_of_int (Int.max 1 run.Catch_up.blocks) in
  [
    metric "crypto.verify_ms_per_block" "ms" crypto;
    metric "codec.encode_ms_per_block" "ms" (pb "codec.encode");
    metric "codec.decode_ms_per_block" "ms" (pb "codec.decode");
    metric "sync.respond_ms_per_block" "ms" sync;
    metric "sync.rounds_per_exchange" "count"
      (run.Catch_up.rounds /. float_of_int (Int.max 1 run.Catch_up.exchanges_total));
    metric "sync.redundant_ratio" "ratio" (Report.div run.Catch_up.redundant run.Catch_up.wire_blocks);
    metric "engine.handle_us" "us" (total tr "engine.handle" *. 1000. /. float_of_int (Int.max 1 (count tr "engine.handle")));
    metric "engine.inputs_per_block" "count" (float_of_int (count tr "engine.handle") /. run_blocks);
    metric "node.receive_ms_per_block" "ms" (Float.max 0. (pb "node.receive" -. crypto -. dag_add));
    metric "node.accept_ratio" "ratio"
      (Report.div (float_of_int !accepted) (float_of_int (!accepted + !refused)));
    metric "dag.add_ms_per_block" "ms" dag_add;
    metric "dag.encode_ms_per_block" "ms" enc;
    metric "store.save_ms_per_block" "ms" (Float.max 0. (save -. enc));
    metric "store.save_bytes_per_block" "B" (float_of_int !save_bytes /. run_blocks);
    metric "store.journal_ms_per_block" "ms" journal_ms;
    metric "store.load_ms_per_block" "ms"
      (total tr "store.load" /. float_of_int (Dag.cardinal fx.Fixture.replica));
    metric "obs.emit_us_per_block" "us" (obs *. 1000.);
    metric "obs.events_per_block" "count" (float_of_int (List.length journal) /. journal_run_blocks);
  ]
  @ loop_metrics run
  @ [
      metric "gc.major_per_1k_blocks" "count"
        ((sum_report run [ "gc_major" ] +. float_of_int run.Catch_up.gen_gc_major) /. rb *. 1000.);
      metric "gc.heap_mb" "MB" (Float.max gen_heap d_heap *. 8. /. 1048576.);
    ]
  @ net_na
  @ [ metric "budget.explained_ratio" "ratio" explained ]

(* {1 fleet-sim} *)

(* Simulated block timestamps are milliseconds since the start of the
   simulation; an admission clock far beyond them never rejects one as
   being in the future. *)
let far = Timestamp.of_ms 1_000_000_000_000L

type record = { peer : int; now : float; dag : Dag.t; input : Peer_engine.input }

let fleet ~work ~seed ~(p : Fleet.params) ~instances ~e2e =
  let tr = tracer () in
  let recs = ref [] and events = ref [] in
  let tap ~peer ~now ~dag input _effects = recs := { peer; now; dag; input } :: !recs in
  let sink = Obs.Sink.make (fun ~ts ev -> events := (ts, ev) :: !events) in
  let traced = Fleet.instance ~tap ~sink ~seed ~k:0 p in
  let recs = List.rev !recs and events = List.rev !events in
  let fleet = Fleet.build ~seed ~k:0 p in
  let n = p.Fleet.side * p.Fleet.side in
  (* Gossip's engine configuration at Scenario's 1 s gossip interval. *)
  let config =
    { Peer_engine.Config.default with Peer_engine.Config.mode = Reconcile.Digest; stale_after_ms = 5_000.;
      session_timeout_ms = 30_000. }
  in
  let engines =
    Array.init n (fun i ->
        let node = Vegvisir_net.Gossip.node fleet.Vegvisir_net.Scenario.gossip i in
        Peer_engine.create ~config ~user_id:(Node.user_id node) ~dag:(Node.dag node) ())
  in
  let side =
    Array.init n (fun i ->
        let node =
          Node.create ~signer:(Signer.oracle ~id:(Printf.sprintf "replay-%d" i) ())
            ~cert:fleet.Vegvisir_net.Scenario.certs.(i) ()
        in
        ignore (Node.receive node ~now:far fleet.Vegvisir_net.Scenario.genesis);
        node)
  in
  let cpu0 = Daemon.self_cpu_s () in
  List.iter
    (fun r ->
      let who = string_of_int r.peer and trace = "fleet" in
      (match r.input with
      | Peer_engine.Message_received { bytes; _ } -> frame tr ~trace ~who ~dag:r.dag ~framed:false bytes
      | Peer_engine.Timer_fired _ | Peer_engine.Tick _ -> ()
      | Peer_engine.Block_created b -> ignore (Node.receive side.(r.peer) ~now:far b));
      let eng, effects =
        span tr ~trace ~node:who "engine.handle" (fun () ->
            Peer_engine.handle engines.(r.peer) ~now:r.now ~dag:r.dag r.input)
      in
      engines.(r.peer) <- eng;
      List.iter
        (function
          | Peer_engine.Deliver blocks ->
            intake tr ~trace ~who side.(r.peer) ~now:far blocks
          | Peer_engine.Send _ | Peer_engine.Set_timer _ | Peer_engine.Session_done _
          | Peer_engine.Trace _ -> ())
        effects)
    recs;
  emit_all tr ~me:"0" events;
  let replay_cpu = Daemon.self_cpu_s () -. cpu0 in
  let deliveries = float_of_int (Int.max 1 traced.Fleet.deliveries) in
  let pb name = total tr name /. deliveries in
  let crypto = pb "crypto.verify" and dag_add = pb "dag.add" in
  let codec = pb "codec.encode" +. pb "codec.decode" and sync = pb "sync.respond" in
  let obs = pb "obs.emit" in
  let rows =
    [
      ("crypto", crypto);
      ("codec", codec);
      ("sync", sync);
      ("engine (self)", Float.max 0. (pb "engine.handle" -. codec -. sync));
      ("node (self)", Float.max 0. (pb "node.receive" -. crypto -. dag_add));
      ("dag", dag_add);
      ("obs", obs);
    ]
  in
  let cpu_pb = e2e_value e2e "cpu_ms_per_block" in
  let explained = budget_table ~workload:"fleet-sim" ~rows ~cpu_ms_per_block:cpu_pb in
  Printf.eprintf
    "fleet-sim traced instance: %.4f CPU-ms per delivery with the tap (untraced %.4f); replay %.4f\n%!"
    (traced.Fleet.cpu_s *. 1000. /. deliveries) cpu_pb (replay_cpu *. 1000. /. deliveries);
  write_chrome tr (work // "trace-fleet-sim.json");
  let stats = Array.fold_left (fun (a, r) nd -> let s = Node.stats nd in (a + s.Node.accepted, r + s.Node.rejected + s.Node.duplicates)) (0, 0) side in
  let sum f = List.fold_left (fun a i -> a + f i) 0 instances in
  let all_deliveries = float_of_int (Int.max 1 (sum (fun i -> i.Fleet.deliveries))) in
  let completed = sum (fun i -> i.Fleet.sessions_completed) and aborted = sum (fun i -> i.Fleet.sessions_aborted) in
  let sent = sum (fun i -> i.Fleet.msgs_sent) in
  [
    metric "crypto.verify_ms_per_block" "ms" crypto;
    metric "codec.encode_ms_per_block" "ms" (pb "codec.encode");
    metric "codec.decode_ms_per_block" "ms" (pb "codec.decode");
    metric "sync.respond_ms_per_block" "ms" sync;
    metric "sync.rounds_per_exchange" "count"
      (Report.div (float_of_int (sum (fun i -> i.Fleet.rounds))) (float_of_int completed));
    metric "sync.redundant_ratio" "ratio"
      (Report.div (float_of_int (sum (fun i -> i.Fleet.redundant)))
         (float_of_int (sum (fun i -> i.Fleet.blocks_received))));
    metric "engine.handle_us" "us" (total tr "engine.handle" *. 1000. /. float_of_int (Int.max 1 (count tr "engine.handle")));
    metric "engine.inputs_per_block" "count" (float_of_int (List.length recs) /. deliveries);
    metric "node.receive_ms_per_block" "ms" (Float.max 0. (pb "node.receive" -. crypto -. dag_add));
    metric "node.accept_ratio" "ratio" (Report.div (float_of_int (fst stats)) (float_of_int (fst stats + snd stats)));
    metric "dag.add_ms_per_block" "ms" dag_add;
  ]
  @ zero
      [ ("dag.encode_ms_per_block", "ms"); ("store.save_ms_per_block", "ms");
        ("store.save_bytes_per_block", "B"); ("store.journal_ms_per_block", "ms");
        ("store.load_ms_per_block", "ms") ]
  @ [
      metric "obs.emit_us_per_block" "us" (obs *. 1000.);
      metric "obs.events_per_block" "count" (float_of_int (List.length events) /. deliveries);
    ]
  @ zero
      (List.map (fun ph -> ("loop." ^ ph ^ "_ms_per_exchange", "ms")) Daemon.phases
      @ [ ("loop.unattributed_ms_per_exchange", "ms"); ("loop.slow_iterations", "count");
          ("daemon.busy_ratio", "ratio") ])
  @ [
      metric "gc.major_per_1k_blocks" "count"
        (float_of_int (sum (fun i -> i.Fleet.gc_major)) /. all_deliveries *. 1000.);
      metric "gc.heap_mb" "MB" (float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1048576.);
      metric "simnet.msgs_per_block" "count" (float_of_int sent /. all_deliveries);
      metric "simnet.drop_ratio" "ratio"
        (Report.div (float_of_int (sum (fun i -> i.Fleet.msgs_dropped))) (float_of_int sent));
      metric "gossip.sessions_per_block" "count" (float_of_int (completed + aborted) /. all_deliveries);
      metric "gossip.abort_ratio" "ratio" (Report.div (float_of_int aborted) (float_of_int (completed + aborted)));
    ]
  @ [ metric "budget.explained_ratio" "ratio" explained ]
