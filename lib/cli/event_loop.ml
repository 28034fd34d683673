(* The poll-based event-loop host: one process multiplexing N concurrent
   Peer_engine exchange sessions, the /metrics HTTP endpoint, and
   periodic anti-entropy timers over non-blocking sockets.

   This is the CLI's only socket host: daemon, serve, sync --live and
   serve --metrics each drive a loop over their store directly. The
   protocol brain stays the sans-IO Peer_engine — the loop only moves
   bytes, applies Deliver effects to the store's node, turns Set_timer
   effects into timer-wheel deadlines, and maps Trace effects to obs
   events through Obs.Engine_events (the simulator's mapping too), so a
   daemon session and a `sync --live` session run byte-for-byte the
   same exchange.

   Structure of one loop iteration (run):
     1. fire due timers (engine deadlines, housekeeping wakeups,
        anti-entropy dials, idle sweeps);
     2. reap sessions that finished or failed;
     3. one wait_ready (select) over: the peer listener (only while
        under the session budget — backpressure at accept), the metrics
        listener, every session conn (reads gated while its outbound
        queue is over budget), and every conn with queued output;
     4. pump readiness: accept, incremental frame reads, incremental
        HTTP reads, queued writes; reap again.

   Time: the engine and the timer wheel run on Unix_compat.mono_ms (a
   wall clock step backwards cannot un-expire a deadline); block
   admission timestamps use the wall clock plus the validation layer's
   skew allowance. *)

open Vegvisir
module Peer_engine = Vegvisir_engine.Peer_engine
module Obs = Vegvisir_obs
module IntMap = Map.Make (Int)

(* The engine addresses peers by small ints; each session is its own
   engine over a point-to-point conn, so there is exactly one remote. *)
let remote_id = 0

(* How long an HTTP conn may sit without progress before the idle sweep
   drops it — scrapers are fast; anything slower is not a scraper. *)
let http_idle_ms = 10_000.

(* Longest plausible scrape request head. *)
let max_request_bytes = 16 * 1024

(* Per-session backpressure: stop reading a session's requests (and so
   stop generating replies) while this much output is queued. *)
let max_outbound_bytes = 8 * 1024 * 1024

(* No bytes moved either way for this long: the session failed. *)
let idle_timeout_ms = 30_000.

(* Graceful shutdown: sessions still open this long after request_stop
   are force-closed. *)
let drain_grace_ms = 5_000.

type config = {
  mode : Reconcile.mode;
  session_budget : int;
      (* stop accepting new peer conns while this many are active *)
  stale_after_ms : float;
  session_timeout_ms : float;
  slow_iteration_ms : float;
      (* self-profiling: iterations whose busy time (select wait
         excluded) exceeds this bump loop.slow_iterations *)
  trace_sample : float;
      (* head-sampling rate for cross-daemon span tracing, handed to
         every hosted engine; 0. = off (no Trace_context frames) *)
  flight_capacity : int;
      (* flight-recorder ring size in events *)
}

let default_config =
  {
    mode = Reconcile.Naive;
    session_budget = 128;
    stale_after_ms = 2_000.;
    session_timeout_ms = 20_000.;
    slow_iteration_ms = 100.;
    trace_sample = 0.;
    flight_capacity = Obs.Flight.default_capacity;
  }

(* How many recent spans /debug/spans retains. *)
let span_ring_capacity = 1024

(* Runtime gauges (GC, open fds, timer depth) refresh at most this often
   — /proc reads and Gc.quick_stat are cheap but not free per iteration. *)
let gauge_refresh_ms = 1_000.

(* Anomaly-triggered flight dumps are rate-limited to one per this
   window, so a persistently slow loop does not spend its time
   serializing its own black box. *)
let flight_dump_min_interval_ms = 5_000.

(* Sub-millisecond-to-half-second bounds for the per-phase loop
   profiling histograms: most phases run in tens of microseconds; a
   phase in the overflow slot is a stall worth investigating. *)
let profile_buckets = [ 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500. ]

(* Where a session is in the symmetric pull-then-serve exchange. The
   drain-to-close tail is [closing], not a phase: a finished session
   only flushes its queue. *)
type phase = Pulling | Serving

type closing = Complete | Failed of string

type session = {
  sid : int;
  conn : Unix_compat.conn;
  origin : [ `Inbound | `Outbound ];
  label : string;  (* telemetry identity of the far end *)
  mutable engine : Peer_engine.t;
  (* incremental frame reader *)
  header : Bytes.t;
  mutable header_got : int;
  mutable chunks : Bytes.t list;
      (* payload read buffers in fill order, added as payload bytes
         arrive (never sized by the announced length), reused across
         frames *)
  mutable payload_len : int;  (* -1 while reading the header *)
  mutable payload_got : int;
  (* outbound queue of already-framed strings *)
  outq : string Queue.t;
  mutable out_head : int;  (* bytes of the front string already written *)
  mutable out_bytes : int;
  mutable phase : phase;
  mutable closing : closing option;
  mutable timeout_timer : Timer_wheel.id option;
  mutable wakeup_timer : Timer_wheel.id option;
  mutable pulled : Reconcile.stats option;
  mutable turned : bool;  (* pull-completion transition already ran *)
  mutable delivered : int;
  mutable served : int;
  mutable last_io : float;
  mutable trace_ctx : (string * string) option;
      (* the session's (trace, root span) once announced — sent by us on
         a sampled outbound exchange, or received from the initiator *)
}

type http = {
  hid : int;
  hconn : Unix_compat.conn;
  req : Buffer.t;
  mutable resp : string option;
  mutable resp_off : int;
  mutable is_scrape : bool;
  mutable h_last_io : float;
}

(* What a timer-wheel entry does when it fires. *)
type tev =
  | Engine_timer of int * Peer_engine.timer_key
  | Housekeep of int  (* Peer_engine.next_wakeup: Tick {peer = None} *)
  | Anti_entropy
  | Idle_sweep

type fd_owner = Session_fd of int | Http_fd of int

type outcome = {
  pulled : Reconcile.stats option;
  delivered : int;
  served : int;
  error : string option;
}

type stats = {
  accepted : int;
  dialed : int;
  dial_failures : int;
  completed : int;
  failed : int;
  active : int;
  scrapes : int;
  http_closed : int;
  delivered : int;
  served : int;
}

(* One configured anti-entropy peer, with its capped-exponential dial
   backoff state. [ae_blocked_until] is a mono_ms deadline (0. = always
   eligible); consecutive connect failures double the wait up to
   2^6 = 64 anti-entropy periods, and one successful dial resets it. *)
type ae_peer = {
  ae_host : string;
  ae_port : int;
  ae_label : string;  (* "host:port" — the scoreboard row key *)
  mutable ae_fails : int;
  mutable ae_blocked_until : float;
  ae_g_fails : Obs.Registry.gauge;
}

type anti_entropy = {
  every_ms : float;
  ae_peers : ae_peer array;
  dial_timeout_s : float;
}

let backoff_cap_doublings = 6

type t = {
  store : Node_store.t;
  config : config;
  ctx : Obs.Context.t;
  me : string;
  monitor : Obs.Monitor.t;  (* live health fold over the journal bus *)
  scoreboard : Obs.Scoreboard.t;  (* per-peer fold over the same bus *)
  flight : Obs.Flight.t;  (* always-on ring of the last N events *)
  span_ring : Obs.Span.Collector.t;  (* live span view for /debug/spans *)
  started_ms : float;  (* mono_ms at create, for the uptime gauge *)
  rdbuf : Bytes.t;  (* shared scratch for HTTP reads *)
  mutable wheel : tev Timer_wheel.t;
  mutable sessions : session IntMap.t;
  mutable https : http IntMap.t;
  mutable by_fd : fd_owner IntMap.t;
  mutable peer_listener : Unix_compat.listener option;
  mutable metrics_listener : Unix_compat.listener option;
  mutable render : unit -> string;
  mutable next_id : int;
  mutable outcomes : outcome IntMap.t;
  mutable ae : anti_entropy option;
  mutable stop_requested : bool;
  mutable stop_initiated : bool;
  mutable stop_deadline : float;
  mutable dirty : bool;  (* an intake made blocks resident since the last save *)
  mutable fatal : string option;
  mutable idle_armed : bool;
  mutable n_accepted : int;
  mutable n_dialed : int;
  mutable n_dial_failures : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_scrapes : int;
  mutable n_http_closed : int;
  mutable n_delivered : int;
  mutable n_served : int;
  mutable dials_rev : string list;  (* last dialed labels, newest first *)
  c_accepted : Obs.Registry.counter;
  c_scrapes : Obs.Registry.counter;
  c_completed : Obs.Registry.counter;
  c_failed : Obs.Registry.counter;
  c_dial_failures : Obs.Registry.counter;
  g_active : Obs.Registry.gauge;
  g_uptime : Obs.Registry.gauge;
  (* event-loop self-profiling: per-phase duration histograms and the
     slow-iteration counter, all in the live registry *)
  h_timer : Obs.Registry.histogram;
  h_accept : Obs.Registry.histogram;
  h_read : Obs.Registry.histogram;
  h_engine : Obs.Registry.histogram;
  h_write : Obs.Registry.histogram;
  h_sweep : Obs.Registry.histogram;
  c_slow : Obs.Registry.counter;
  (* runtime gauges: GC pressure, fd usage, timer-wheel depth *)
  g_gc_minor : Obs.Registry.gauge;
  g_gc_major : Obs.Registry.gauge;
  g_gc_heap : Obs.Registry.gauge;
  g_fds : Obs.Registry.gauge;
  g_timer_depth : Obs.Registry.gauge;
  mutable next_gauge_refresh : float;
  mutable flight_dump_requested : bool;  (* set by the SIGQUIT handler *)
  mutable last_flight_dump : float;  (* mono_ms; 0. = never dumped *)
}

(* How many recent anti-entropy dial labels /health reports. *)
let max_dial_log = 64

let context t = t.ctx

(* The live registry (daemon / loop / derived session counters) merged
   with a per-call projection of the monitor and scoreboard folds
   (health / peer metrics). The projection goes into a fresh registry
   each time — Health.export and Scoreboard.export re-observe their
   histograms wholesale, which must not accumulate into live metrics —
   and the two sorted snapshots zip back into one canonical order. *)
let reg_key_compare (((na, la), _) : (string * string) * Obs.Registry.value)
    (((nb, lb), _) : (string * string) * Obs.Registry.value) =
  match String.compare na nb with 0 -> String.compare la lb | c -> c

let merged_snapshot t =
  let live = Obs.Registry.snapshot (Obs.Context.registry t.ctx) in
  let derived = Obs.Registry.create () in
  Obs.Health.export t.monitor derived;
  Obs.Scoreboard.export t.scoreboard derived;
  List.merge reg_key_compare live (Obs.Registry.snapshot derived)

let create ~store ?(config = default_config) () =
  let ctx = Obs.Context.create () in
  let reg = Obs.Context.registry ctx in
  let me = Node_store.node_name store in
  let monitor = Obs.Monitor.create ~nodes:[ me ] () in
  let scoreboard = Obs.Scoreboard.create ~me () in
  let flight = Obs.Flight.create ~capacity:config.flight_capacity () in
  let span_ring = Obs.Span.Collector.create ~capacity:span_ring_capacity in
  Obs.Context.attach ctx (Obs.Monitor.sink monitor);
  Obs.Context.attach ctx (Obs.Scoreboard.sink scoreboard);
  Obs.Context.attach ctx (Obs.Flight.sink flight);
  Obs.Context.attach ctx (Obs.Span.Collector.sink span_ring);
  (* Constant-1 gauge whose node label carries the build string, so a
     scrape can detect restarts-with-upgrade:
     vegvisir_build_info{node="vegvisir/x.y.z"} 1 *)
  Obs.Registry.set (Obs.Registry.gauge reg ~node:Version.string "build.info") 1.;
  let hist name =
    Obs.Registry.histogram reg ~buckets:profile_buckets name
  in
  let t =
    {
      store;
      config;
      ctx;
      me;
      monitor;
      scoreboard;
      flight;
      span_ring;
      started_ms = Unix_compat.mono_ms ();
      rdbuf = Bytes.create 65536;
      wheel = Timer_wheel.empty;
      sessions = IntMap.empty;
      https = IntMap.empty;
      by_fd = IntMap.empty;
      peer_listener = None;
      metrics_listener = None;
      render = (fun () -> "");
      next_id = 1;
      outcomes = IntMap.empty;
      ae = None;
      stop_requested = false;
      stop_initiated = false;
      stop_deadline = 0.;
      dirty = false;
      fatal = None;
      idle_armed = false;
      n_accepted = 0;
      n_dialed = 0;
      n_dial_failures = 0;
      n_completed = 0;
      n_failed = 0;
      n_scrapes = 0;
      n_http_closed = 0;
      n_delivered = 0;
      n_served = 0;
      dials_rev = [];
      c_accepted = Obs.Registry.counter reg "daemon.accepted";
      c_scrapes = Obs.Registry.counter reg "daemon.scrapes";
      c_completed = Obs.Registry.counter reg "daemon.sessions_completed";
      c_failed = Obs.Registry.counter reg "daemon.sessions_failed";
      c_dial_failures = Obs.Registry.counter reg "daemon.dial_failures";
      g_active = Obs.Registry.gauge reg "daemon.sessions_active";
      g_uptime = Obs.Registry.gauge reg "daemon.uptime_seconds";
      h_timer = hist "loop.timer_ms";
      h_accept = hist "loop.accept_ms";
      h_read = hist "loop.read_ms";
      h_engine = hist "loop.engine_step_ms";
      h_write = hist "loop.write_ms";
      h_sweep = hist "loop.sweep_ms";
      c_slow = Obs.Registry.counter reg "loop.slow_iterations";
      g_gc_minor = Obs.Registry.gauge reg "gc.minor_collections";
      g_gc_major = Obs.Registry.gauge reg "gc.major_collections";
      g_gc_heap = Obs.Registry.gauge reg "gc.heap_words";
      g_fds = Obs.Registry.gauge reg "fds.open";
      g_timer_depth = Obs.Registry.gauge reg "loop.timer_depth";
      next_gauge_refresh = 0.;
      flight_dump_requested = false;
      last_flight_dump = 0.;
    }
  in
  t.render <- (fun () -> Obs.Registry.to_prometheus (merged_snapshot t));
  t

let set_render t render = t.render <- render

(* {2 Flight recorder and spans} *)

let flight_dump t = Obs.Flight.dump t.flight ~snapshot:(merged_snapshot t)
let spans t = Obs.Span.Collector.spans t.span_ring

(* Safe to call from a signal handler: only flips a flag; the loop
   writes the dump at its next iteration. *)
let request_flight_dump t = t.flight_dump_requested <- true

(* Write the dump to <store dir>/flight.jsonl. Failures are swallowed:
   the flight recorder is a diagnostic of last resort and must never
   take the daemon down with it. *)
let write_flight_dump t =
  t.last_flight_dump <- Unix_compat.mono_ms ();
  match open_out (Filename.concat t.store.Node_store.dir "flight.jsonl") with
  | oc ->
    (try output_string oc (flight_dump t) with Sys_error _ -> ());
    close_out_noerr oc
  | exception Sys_error _ -> ()

(* One GC/fd/timer-depth gauge refresh, rate-limited by the caller. *)
let refresh_runtime_gauges t =
  let gc = Gc.quick_stat () in
  Obs.Registry.set t.g_gc_minor (float_of_int gc.Gc.minor_collections);
  Obs.Registry.set t.g_gc_major (float_of_int gc.Gc.major_collections);
  Obs.Registry.set t.g_gc_heap (float_of_int gc.Gc.heap_words);
  (match Sys.readdir "/proc/self/fd" with
  | entries -> Obs.Registry.set t.g_fds (float_of_int (Array.length entries))
  | exception Sys_error _ -> ());
  Obs.Registry.set t.g_timer_depth (float_of_int (Timer_wheel.cardinal t.wheel))

let stats t : stats =
  {
    accepted = t.n_accepted;
    dialed = t.n_dialed;
    dial_failures = t.n_dial_failures;
    completed = t.n_completed;
    failed = t.n_failed;
    active = IntMap.cardinal t.sessions;
    scrapes = t.n_scrapes;
    http_closed = t.n_http_closed;
    delivered = t.n_delivered;
    served = t.n_served;
  }

let outcome t sid = IntMap.find_opt sid t.outcomes
let outcomes t = IntMap.bindings t.outcomes

(* Every journaled event also feeds the live obs context, so /metrics
   reflects the loop's sessions as they run, not on the next replay. *)
let journal t evs =
  Node_store.record_all t.store evs;
  let ts = Unix_compat.now_ms () in
  List.iter (fun ev -> Obs.Context.emit t.ctx ~ts ev) evs

let set_active t =
  Obs.Registry.set t.g_active (float_of_int (IntMap.cardinal t.sessions))

let arm_idle_sweep t =
  if not t.idle_armed then begin
    t.idle_armed <- true;
    let period = Float.max 1_000. (idle_timeout_ms /. 4.) in
    let w, _id =
      Timer_wheel.schedule t.wheel ~at_ms:(Unix_compat.mono_ms () +. period)
        Idle_sweep
    in
    t.wheel <- w
  end

let enqueue_out s payload =
  let framed = Unix_compat.encode_frame payload in
  Queue.add framed s.outq;
  s.out_bytes <- s.out_bytes + String.length framed

(* Mark a session dead. Its queue is dropped (the conn is either broken
   or mid-protocol-error; flushing would only confuse the peer) and the
   reap pass finalizes it. Idempotent: first cause wins. *)
let fail_session _t s msg =
  match s.closing with
  | Some _ -> ()
  | None ->
    s.closing <- Some (Failed msg);
    Queue.clear s.outq;
    s.out_head <- 0;
    s.out_bytes <- 0

let save_if_dirty t =
  if not t.dirty then Ok ()
  else begin
    t.dirty <- false;
    Node_store.save t.store
  end

let apply_effect t s (eff : Peer_engine.effect_) =
  match eff with
  | Peer_engine.Send { dst = _; bytes } -> enqueue_out s bytes
  | Peer_engine.Set_timer { key; after_ms } -> begin
    match key with
    | Peer_engine.Session_timeout _ ->
      (match s.timeout_timer with
      | Some id -> t.wheel <- Timer_wheel.cancel t.wheel id
      | None -> ());
      let w, id =
        Timer_wheel.schedule t.wheel
          ~at_ms:(Unix_compat.mono_ms () +. after_ms)
          (Engine_timer (s.sid, key))
      in
      t.wheel <- w;
      s.timeout_timer <- Some id
    | Peer_engine.Gossip_round ->
      (* The gossip cadence is host-driven (anti-entropy timer). *)
      ()
  end
  | Peer_engine.Deliver blocks ->
    let made = Node_store.deliver t.store ~journal:(journal t) ~peer:s.label blocks in
    let n = List.length blocks in
    s.delivered <- s.delivered + n;
    t.n_delivered <- t.n_delivered + n;
    (* Only a block made resident changes what a save writes; every
       finished pull delivers, usually nothing new. *)
    (match made with [] -> () | _ :: _ -> t.dirty <- true)
  | Peer_engine.Session_done pull_stats -> s.pulled <- Some pull_stats
  | Peer_engine.Trace ev -> begin
    let journal_ev () =
      journal t
        (Obs.Engine_events.of_event ~node:t.me
           ~peer:(fun _ -> s.label)
           ?exchange:s.trace_ctx ev)
    in
    match ev with
    (* Span stitching: a sampled outbound session announces its trace;
       the responder, on hearing it, serves under the announced root.
       Either way the ids ride the session so its completion span joins
       the same tree — across both processes. *)
    | Peer_engine.Trace_context_sent { trace; span; _ }
    | Peer_engine.Trace_context_received { trace; span; _ } ->
      s.trace_ctx <- Some (trace, span);
      journal_ev ()
    | Peer_engine.Peer_advertised { hashes; _ } ->
      (* Feed advertisement evidence to the pending pool so eviction
         spares buffered orphans a live peer still vouches for. *)
      List.iter (Node.note_advertised t.store.Node_store.node) hashes;
      journal_ev ()
    | Peer_engine.Session_aborted { reason; _ } ->
      journal_ev ();
      fail_session t s
        (match reason with
        | Peer_engine.Stalled -> "sync failed: the peer stopped answering"
        | Peer_engine.Timed_out -> "sync failed: session deadline exceeded")
    | Peer_engine.Session_started _ | Peer_engine.Request_resent _
    | Peer_engine.Session_completed _ | Peer_engine.Blocks_served _
    | Peer_engine.Redundant_received _ | Peer_engine.Request_suppressed _
    | Peer_engine.Reply_ignored _ | Peer_engine.Decode_failed _ ->
      journal_ev ()
  end

(* Feed one input to the session's engine, replay its effects, re-arm
   its housekeeping wakeup, and run the pull-completion transition. *)
let step t s input =
  let now = Unix_compat.mono_ms () in
  let dag = Node.dag t.store.Node_store.node in
  let engine, effects = Peer_engine.handle s.engine ~now ~dag input in
  Obs.Registry.observe t.h_engine (Unix_compat.mono_ms () -. now);
  s.engine <- engine;
  List.iter (apply_effect t s) effects;
  (match s.wakeup_timer with
  | Some id ->
    t.wheel <- Timer_wheel.cancel t.wheel id;
    s.wakeup_timer <- None
  | None -> ());
  (match s.closing with
  | Some _ -> ()
  | None -> begin
    match Peer_engine.next_wakeup s.engine with
    | Some at ->
      let w, id = Timer_wheel.schedule t.wheel ~at_ms:at (Housekeep s.sid) in
      t.wheel <- w;
      s.wakeup_timer <- Some id
    | None -> ()
  end);
  (match s.pulled with
  | Some _ when not s.turned -> begin
    s.turned <- true;
    (* Our pull is done: hand the turn over (empty frame). For an
       outbound session that opens the serve phase; for an inbound one
       the pull-back was the exchange's tail, so the sentinel is the
       final frame and the session drains to close. *)
    enqueue_out s "";
    match s.origin with
    | `Outbound -> s.phase <- Serving
    | `Inbound -> (
      match s.closing with
      | None -> s.closing <- Some Complete
      | Some _ -> ())
  end
  | Some _ | None -> ());
  effects

let dispatch_frame t s frame =
  if String.length frame = 0 then begin
    match s.phase with
    | Pulling ->
      fail_session t s "protocol error: turn-over sentinel inside a session"
    | Serving -> begin
      match s.origin with
      | `Inbound ->
        (* The remote's pull is over; pull back. *)
        s.phase <- Pulling;
        let (_ : Peer_engine.effect_ list) =
          step t s (Peer_engine.Tick { peer = Some remote_id })
        in
        ()
      | `Outbound -> (
        (* The remote finished serving our pull-back: exchange done. *)
        match s.closing with
        | None -> s.closing <- Some Complete
        | Some _ -> ())
    end
  end
  else begin
    let in_serving = match s.phase with Serving -> true | Pulling -> false in
    let effects =
      step t s (Peer_engine.Message_received { from = remote_id; bytes = frame })
    in
    if in_serving then begin
      let answered =
        List.exists
          (function
            | Peer_engine.Send _ -> true
            | Peer_engine.Set_timer _ | Peer_engine.Deliver _
            | Peer_engine.Session_done _ | Peer_engine.Trace _ ->
              false)
          effects
      in
      if answered then begin
        s.served <- s.served + 1;
        t.n_served <- t.n_served + 1
      end
    end
  end

let on_eof t s =
  let mid_frame = s.header_got > 0 || s.payload_len >= 0 in
  if mid_frame then fail_session t s "peer closed the connection mid-frame"
  else begin
    match (s.phase, s.origin) with
    | Serving, `Outbound -> (
      (* The remote finished its pull-back and hung up instead of
         sending the final sentinel — complete either way. *)
      match s.closing with
      | None -> s.closing <- Some Complete
      | Some _ -> ())
    | Serving, `Inbound ->
      fail_session t s "peer closed the connection before turn-over"
    | Pulling, (`Inbound | `Outbound) ->
      fail_session t s "peer closed the connection mid-session"
  end

(* Smallest payload chunk. A chunk is added only when the held ones are
   full, as large as all of them together but no larger than the frame
   still lacks: a header alone costs at most this much memory, however
   large a length it announces, and a frame of n bytes fills chunks
   totalling n without copying any of them into a larger buffer. *)
let min_chunk_bytes = 4096

(* The chunk that payload byte [s.payload_got] goes to, and its offset
   there; past the held chunks, a new one is appended. *)
let payload_chunk s =
  let rec find base = function
    | c :: rest ->
      let n = Bytes.length c in
      if s.payload_got < base + n then (c, s.payload_got - base)
      else find (base + n) rest
    | [] ->
      let c = Bytes.create (max min_chunk_bytes (min base (s.payload_len - base))) in
      s.chunks <- s.chunks @ [ c ];
      (c, 0)
  in
  find 0 s.chunks

(* The completed payload, copied out of its chunks in order. *)
let take_payload s =
  let frame = Bytes.create s.payload_len in
  let rec copy pos = function
    | c :: rest when pos < s.payload_len ->
      let n = min (Bytes.length c) (s.payload_len - pos) in
      Bytes.blit c 0 frame pos n;
      copy (pos + n) rest
    | _ :: _ | [] -> ()
  in
  copy 0 s.chunks;
  Bytes.unsafe_to_string frame

(* Drain whatever the kernel has for this session: incremental header
   and payload reads, dispatching every completed frame. Stops at
   `Would_block, on session death, or when the outbound queue is over
   budget (backpressure: un-read requests stay in the kernel buffer
   until we have flushed the replies they would generate). *)
let rec pump_read t s =
  match s.closing with
  | Some _ -> ()
  | None ->
    if s.out_bytes > max_outbound_bytes then ()
    else if s.payload_len < 0 then begin
      match
        Unix_compat.read_nb s.conn s.header ~pos:s.header_got
          ~len:(Unix_compat.frame_header_bytes - s.header_got)
      with
      | Error e -> fail_session t s e
      | Ok `Would_block -> ()
      | Ok `Eof -> on_eof t s
      | Ok (`Read n) -> begin
        s.last_io <- Unix_compat.mono_ms ();
        s.header_got <- s.header_got + n;
        if s.header_got = Unix_compat.frame_header_bytes then begin
          match Unix_compat.decode_frame_header s.header with
          | Error e -> fail_session t s e
          | Ok len ->
            s.header_got <- 0;
            if len = 0 then begin
              dispatch_frame t s "";
              pump_read t s
            end
            else begin
              s.payload_len <- len;
              s.payload_got <- 0;
              pump_read t s
            end
        end
        else pump_read t s
      end
    end
    else begin
      let chunk, pos = payload_chunk s in
      match
        Unix_compat.read_nb s.conn chunk ~pos
          ~len:(min (Bytes.length chunk - pos) (s.payload_len - s.payload_got))
      with
      | Error e -> fail_session t s e
      | Ok `Would_block -> ()
      | Ok `Eof -> on_eof t s
      | Ok (`Read n) ->
        s.last_io <- Unix_compat.mono_ms ();
        s.payload_got <- s.payload_got + n;
        if s.payload_got = s.payload_len then begin
          let frame = take_payload s in
          s.payload_len <- -1;
          s.payload_got <- 0;
          dispatch_frame t s frame;
          pump_read t s
        end
        else pump_read t s
    end

let pump_write t s =
  let rec go () =
    match Queue.peek_opt s.outq with
    | None -> ()
    | Some front ->
      let flen = String.length front in
      if s.out_head >= flen then begin
        let (_ : string) = Queue.pop s.outq in
        s.out_head <- 0;
        go ()
      end
      else begin
        match
          Unix_compat.write_nb s.conn
            (Bytes.unsafe_of_string front)
            ~pos:s.out_head ~len:(flen - s.out_head)
        with
        | Error e -> fail_session t s e
        | Ok `Would_block -> ()
        | Ok (`Wrote n) ->
          s.last_io <- Unix_compat.mono_ms ();
          s.out_head <- s.out_head + n;
          s.out_bytes <- s.out_bytes - n;
          go ()
      end
  in
  go ()

(* Retire a finished session: record the completion (or the failure),
   persist the store if this loop delivered anything, close the conn.
   Outcomes stay queryable by session id. *)
let finalize t s =
  (match s.timeout_timer with
  | Some id -> t.wheel <- Timer_wheel.cancel t.wheel id
  | None -> ());
  (match s.wakeup_timer with
  | Some id -> t.wheel <- Timer_wheel.cancel t.wheel id
  | None -> ());
  s.timeout_timer <- None;
  s.wakeup_timer <- None;
  let error =
    match s.closing with
    | Some (Failed msg) -> Some msg
    | Some Complete | None -> begin
      journal t
        [
          Obs.Event.Sync_completed
            { node = t.me; peer = s.label; pulled = s.delivered; served = s.served };
        ];
      match save_if_dirty t with Ok () -> None | Error e -> Some e
    end
  in
  (match error with
  | None ->
    t.n_completed <- t.n_completed + 1;
    Obs.Registry.incr t.c_completed
  | Some _ ->
    t.n_failed <- t.n_failed + 1;
    Obs.Registry.incr t.c_failed);
  t.outcomes <-
    IntMap.add s.sid
      { pulled = s.pulled; delivered = s.delivered; served = s.served; error }
      t.outcomes;
  t.by_fd <- IntMap.remove (Unix_compat.conn_id s.conn) t.by_fd;
  Unix_compat.close_conn s.conn;
  t.sessions <- IntMap.remove s.sid t.sessions;
  set_active t;
  (* A session that saved nothing still journaled its lines; without a
     flush here a serve-only daemon would buffer them for its whole
     life. *)
  Node_store.flush_trace t.store

let reap t =
  let finished =
    IntMap.fold
      (fun _ s acc ->
        match s.closing with
        | Some (Failed _) -> s :: acc
        | Some Complete when Queue.is_empty s.outq -> s :: acc
        | Some Complete | None -> acc)
      t.sessions []
  in
  List.iter (finalize t) (List.rev finished)

let new_session t ~origin ?label conn =
  let sid = t.next_id in
  t.next_id <- sid + 1;
  let label =
    match label with Some l -> l | None -> "peer-" ^ string_of_int sid
  in
  Unix_compat.set_nonblocking conn;
  let node = t.store.Node_store.node in
  let engine =
    Peer_engine.create
      ~config:
        {
          Peer_engine.Config.default with
          Peer_engine.Config.mode = t.config.mode;
          stale_after_ms = t.config.stale_after_ms;
          session_timeout_ms = t.config.session_timeout_ms;
          trace_sample = t.config.trace_sample;
        }
      ~user_id:(Node.user_id node) ~dag:(Node.dag node) ()
  in
  let s =
    {
      sid;
      conn;
      origin;
      label;
      engine;
      header = Bytes.create Unix_compat.frame_header_bytes;
      header_got = 0;
      chunks = [];
      payload_len = -1;
      payload_got = 0;
      outq = Queue.create ();
      out_head = 0;
      out_bytes = 0;
      phase = Serving;
      closing = None;
      timeout_timer = None;
      wakeup_timer = None;
      pulled = None;
      turned = false;
      delivered = 0;
      served = 0;
      last_io = Unix_compat.mono_ms ();
      trace_ctx = None;
    }
  in
  t.sessions <- IntMap.add sid s t.sessions;
  t.by_fd <- IntMap.add (Unix_compat.conn_id conn) (Session_fd sid) t.by_fd;
  set_active t;
  arm_idle_sweep t;
  journal t [ Obs.Event.Sync_started { node = t.me; peer = label } ];
  s

let connect_exchange ?label ?timeout_s t ~host ~port () =
  match Unix_compat.connect ?timeout_s ~host ~port () with
  | Error e -> Error e
  | Ok conn ->
    t.n_dialed <- t.n_dialed + 1;
    let s = new_session t ~origin:`Outbound ?label conn in
    s.phase <- Pulling;
    let (_ : Peer_engine.effect_ list) =
      step t s (Peer_engine.Tick { peer = Some remote_id })
    in
    Ok s.sid

(* {2 The /metrics and /health HTTP side} *)

let http_response ?(content_type = "text/plain; version=0.0.4; charset=utf-8")
    ~status ~body () =
  String.concat "\r\n"
    [
      "HTTP/1.1 " ^ status;
      "Content-Type: " ^ content_type;
      "Content-Length: " ^ string_of_int (String.length body);
      "Connection: close";
      "";
      body;
    ]

let dials t = List.rev t.dials_rev

(* The GET /health body: node identity and uptime, the daemon counters
   (with the recent anti-entropy dial order), the monitor's derived
   health, the per-peer scoreboard, and the loop's self-profiling
   section (every loop.* metric of the live registry). One JSON object,
   composed from the byte-stable obs renderers. *)
let health_body t =
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  let int_field k v =
    add ",\"" ; add k; add "\":"; add (string_of_int v)
  in
  add "{\"node\":";
  add (Obs.Event.json_string t.me);
  add ",\"build\":";
  add (Obs.Event.json_string Version.string);
  add ",\"uptime_s\":";
  add (Obs.Event.json_float ((Unix_compat.mono_ms () -. t.started_ms) /. 1000.));
  add ",\"daemon\":{\"accepted\":";
  add (string_of_int t.n_accepted);
  int_field "dialed" t.n_dialed;
  int_field "dial_failures" t.n_dial_failures;
  int_field "completed" t.n_completed;
  int_field "failed" t.n_failed;
  int_field "active" (IntMap.cardinal t.sessions);
  int_field "scrapes" t.n_scrapes;
  int_field "delivered" t.n_delivered;
  int_field "served" t.n_served;
  add ",\"dials\":[";
  List.iteri
    (fun i l ->
      if i > 0 then add ",";
      add (Obs.Event.json_string l))
    (dials t);
  add "]},\"health\":";
  add (Obs.Health.to_json t.monitor);
  add ",\"peers\":";
  add (Obs.Scoreboard.to_json t.scoreboard);
  add ",\"loop\":{\"slow_iterations\":";
  add (string_of_int (Obs.Registry.counter_value t.c_slow));
  add ",\"phases\":";
  let loop_metrics =
    List.filter
      (fun (((name, _), _) : (string * string) * Obs.Registry.value) ->
        String.length name > 5 && String.equal (String.sub name 0 5) "loop.")
      (Obs.Registry.snapshot (Obs.Context.registry t.ctx))
  in
  add (Obs.Registry.render_json loop_metrics);
  add "}}";
  Buffer.contents b

let parse_target head =
  match String.index_opt head '\r' with
  | None -> None
  | Some eol -> begin
    match String.split_on_char ' ' (String.sub head 0 eol) with
    | [ meth; target; _version ] -> Some (meth, target)
    | _ -> None
  end

let is_metrics target =
  String.equal target "/metrics"
  || String.length target > 8
     && String.equal (String.sub target 0 9) "/metrics?"

let is_health target =
  String.equal target "/health"
  || String.length target > 7 && String.equal (String.sub target 0 8) "/health?"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then false
    else if String.equal (String.sub s i m) sub then true
    else at (i + 1)
  in
  at 0

let close_http t h =
  t.by_fd <- IntMap.remove (Unix_compat.conn_id h.hconn) t.by_fd;
  Unix_compat.close_conn h.hconn;
  t.https <- IntMap.remove h.hid t.https;
  t.n_http_closed <- t.n_http_closed + 1

(* Accumulate the request head across however many reads it takes (a
   scraper dribbling its request one byte at a time never blocks the
   loop), answer once the blank line arrives. *)
let pump_http_read t h =
  let rec go () =
    match h.resp with
    | Some _ -> ()  (* head complete; now only writing *)
    | None -> begin
      match
        Unix_compat.read_nb h.hconn t.rdbuf ~pos:0 ~len:(Bytes.length t.rdbuf)
      with
      | Error _ | Ok `Eof -> close_http t h
      | Ok `Would_block -> ()
      | Ok (`Read n) ->
        h.h_last_io <- Unix_compat.mono_ms ();
        Buffer.add_subbytes h.req t.rdbuf 0 n;
        let data = Buffer.contents h.req in
        if contains_sub data "\r\n\r\n" then begin
          let resp =
            match parse_target data with
            | Some ("GET", target) when is_metrics target ->
              h.is_scrape <- true;
              http_response ~status:"200 OK" ~body:(t.render ()) ()
            | Some ("GET", target) when is_health target ->
              h.is_scrape <- true;
              http_response ~content_type:"application/json" ~status:"200 OK"
                ~body:(health_body t) ()
            | Some ("GET", "/debug/spans") ->
              h.is_scrape <- true;
              http_response ~content_type:"application/json" ~status:"200 OK"
                ~body:(Obs.Span.render_json (spans t)) ()
            | Some ("GET", "/debug/flight") ->
              h.is_scrape <- true;
              http_response ~content_type:"application/x-ndjson"
                ~status:"200 OK" ~body:(flight_dump t) ()
            | Some ("GET", "/debug/registry") ->
              h.is_scrape <- true;
              http_response ~content_type:"application/json" ~status:"200 OK"
                ~body:(Obs.Registry.render_json (merged_snapshot t)) ()
            | Some _ ->
              http_response ~status:"404 Not Found" ~body:"not found\n" ()
            | None ->
              http_response ~status:"400 Bad Request" ~body:"bad request\n" ()
          in
          h.resp <- Some resp
        end
        else if Buffer.length h.req > max_request_bytes then
          h.resp <-
            Some (http_response ~status:"400 Bad Request" ~body:"bad request\n" ())
        else go ()
    end
  in
  go ()

let pump_http_write t h =
  match h.resp with
  | None -> ()
  | Some resp ->
    let rec go () =
      let len = String.length resp - h.resp_off in
      if len = 0 then begin
        if h.is_scrape then begin
          t.n_scrapes <- t.n_scrapes + 1;
          Obs.Registry.incr t.c_scrapes
        end;
        close_http t h
      end
      else begin
        match
          Unix_compat.write_nb h.hconn
            (Bytes.unsafe_of_string resp)
            ~pos:h.resp_off ~len
        with
        | Error _ -> close_http t h
        | Ok `Would_block -> ()
        | Ok (`Wrote n) ->
          h.h_last_io <- Unix_compat.mono_ms ();
          h.resp_off <- h.resp_off + n;
          go ()
      end
    in
    go ()

(* {2 Listeners and accepts} *)

let listen_peers ?host ?(backlog = 128) t ~port () =
  match t.peer_listener with
  | Some _ -> Error "peer listener already installed"
  | None -> begin
    match Unix_compat.listen ?host ~backlog ~port () with
    | Error e -> Error e
    | Ok l ->
      t.peer_listener <- Some l;
      Ok (Unix_compat.bound_port l)
  end

let listen_metrics ?host t ~port () =
  match t.metrics_listener with
  | Some _ -> Error "metrics listener already installed"
  | None -> begin
    match Unix_compat.listen ?host ~port () with
    | Error e -> Error e
    | Ok l ->
      t.metrics_listener <- Some l;
      Ok (Unix_compat.bound_port l)
  end

let metrics_port t =
  match t.metrics_listener with
  | Some l -> Some (Unix_compat.bound_port l)
  | None -> None

let accept_peers t =
  match t.peer_listener with
  | None -> ()
  | Some l ->
    let rec go () =
      if IntMap.cardinal t.sessions >= t.config.session_budget then ()
      else begin
        match Unix_compat.accept_nb l with
        | Error _ -> ()  (* transient (fd pressure); retry next round *)
        | Ok `Would_block -> ()
        | Ok (`Conn conn) ->
          t.n_accepted <- t.n_accepted + 1;
          Obs.Registry.incr t.c_accepted;
          let (_ : session) = new_session t ~origin:`Inbound conn in
          go ()
      end
    in
    go ()

let accept_metrics t =
  match t.metrics_listener with
  | None -> ()
  | Some l ->
    let rec go () =
      match Unix_compat.accept_nb l with
      | Error _ -> ()
      | Ok `Would_block -> ()
      | Ok (`Conn conn) ->
        let hid = t.next_id in
        t.next_id <- hid + 1;
        let h =
          {
            hid;
            hconn = conn;
            req = Buffer.create 256;
            resp = None;
            resp_off = 0;
            is_scrape = false;
            h_last_io = Unix_compat.mono_ms ();
          }
        in
        t.https <- IntMap.add hid h t.https;
        t.by_fd <- IntMap.add (Unix_compat.conn_id conn) (Http_fd hid) t.by_fd;
        arm_idle_sweep t;
        go ()
    in
    go ()

(* {2 Timers} *)

let set_anti_entropy ?(dial_timeout_s = 5.) t ~every_ms ~peers =
  let reg = Obs.Context.registry t.ctx in
  let mk (host, port) =
    let label = host ^ ":" ^ string_of_int port in
    {
      ae_host = host;
      ae_port = port;
      ae_label = label;
      ae_fails = 0;
      ae_blocked_until = 0.;
      ae_g_fails =
        Obs.Registry.gauge reg ~node:label "daemon.dial_consecutive_failures";
    }
  in
  t.ae <-
    Some
      { every_ms; ae_peers = Array.of_list (List.map mk peers); dial_timeout_s };
  let w, _id =
    Timer_wheel.schedule t.wheel
      ~at_ms:(Unix_compat.mono_ms () +. every_ms)
      Anti_entropy
  in
  t.wheel <- w

let has_session_with t label =
  IntMap.exists (fun _ s -> String.equal s.label label) t.sessions

(* One anti-entropy round: order the configured peers by scoreboard
   priority (most diverged, then longest unseen, label tie-break — see
   Scoreboard.priority) and dial the first one that is neither inside
   its failure-backoff window nor already mid-exchange with us. The
   wheel stays clock-free: the host reads mono_ms and passes deadlines
   in. *)
let dial_next t ae =
  if Array.length ae.ae_peers = 0 then ()
  else begin
    let now = Unix_compat.mono_ms () in
    let peers = Array.to_list ae.ae_peers in
    let order =
      Obs.Scoreboard.priority t.scoreboard
        (List.map (fun p -> p.ae_label) peers)
    in
    let eligible label =
      match
        List.find_opt (fun p -> String.equal p.ae_label label) peers
      with
      | None -> None
      | Some p ->
        if p.ae_blocked_until > now || has_session_with t p.ae_label then None
        else Some p
    in
    match List.find_map eligible order with
    | None -> ()  (* everyone backed off or mid-exchange; next round *)
    | Some p ->
      let log = p.ae_label :: t.dials_rev in
      t.dials_rev <-
        (if List.length log > max_dial_log then
           List.filteri (fun i (_ : string) -> i < max_dial_log) log
         else log);
      (match
         connect_exchange ~label:p.ae_label ~timeout_s:ae.dial_timeout_s t
           ~host:p.ae_host ~port:p.ae_port ()
       with
      | Ok (_ : int) ->
        p.ae_fails <- 0;
        p.ae_blocked_until <- 0.;
        Obs.Registry.set p.ae_g_fails 0.
      | Error (_ : string) ->
        p.ae_fails <- p.ae_fails + 1;
        t.n_dial_failures <- t.n_dial_failures + 1;
        Obs.Registry.incr t.c_dial_failures;
        Obs.Registry.set p.ae_g_fails (float_of_int p.ae_fails);
        let doublings = Int.min p.ae_fails backoff_cap_doublings in
        p.ae_blocked_until <-
          now +. (ae.every_ms *. Float.of_int (Int.shift_left 1 doublings)))
  end

let idle_sweep t =
  t.idle_armed <- false;
  let now = Unix_compat.mono_ms () in
  IntMap.iter
    (fun _ s ->
      match s.closing with
      | Some _ -> ()
      | None ->
        if now -. s.last_io > idle_timeout_ms then
          fail_session t s "timed out waiting for the peer")
    t.sessions;
  let stale =
    IntMap.fold
      (fun _ h acc -> if now -. h.h_last_io > http_idle_ms then h :: acc else acc)
      t.https []
  in
  List.iter (fun h -> close_http t h) (List.rev stale);
  if not (IntMap.is_empty t.sessions && IntMap.is_empty t.https) then
    arm_idle_sweep t

let fire t ev =
  match ev with
  | Engine_timer (sid, key) -> begin
    match IntMap.find_opt sid t.sessions with
    | None -> ()
    | Some s -> begin
      match s.closing with
      | Some _ -> ()
      | None ->
        let (_ : Peer_engine.effect_ list) =
          step t s (Peer_engine.Timer_fired key)
        in
        ()
    end
  end
  | Housekeep sid -> begin
    match IntMap.find_opt sid t.sessions with
    | None -> ()
    | Some s -> begin
      match s.closing with
      | Some _ -> ()
      | None ->
        s.wakeup_timer <- None;
        let (_ : Peer_engine.effect_ list) =
          step t s (Peer_engine.Tick { peer = None })
        in
        ()
    end
  end
  | Anti_entropy -> begin
    match t.ae with
    | None -> ()
    | Some ae ->
      if not t.stop_requested then begin
        if IntMap.cardinal t.sessions < t.config.session_budget then
          dial_next t ae;
        let w, _id =
          Timer_wheel.schedule t.wheel
            ~at_ms:(Unix_compat.mono_ms () +. ae.every_ms)
            Anti_entropy
        in
        t.wheel <- w
      end
  end
  | Idle_sweep ->
    let t0 = Unix_compat.mono_ms () in
    idle_sweep t;
    Obs.Registry.observe t.h_sweep (Unix_compat.mono_ms () -. t0)

(* {2 The loop} *)

let build_interest t =
  let listeners =
    let peers =
      match t.peer_listener with
      | Some l
        when (not t.stop_requested)
             && IntMap.cardinal t.sessions < t.config.session_budget ->
        [ l ]
      | Some _ | None -> []
    in
    let metrics =
      match t.metrics_listener with Some l -> [ l ] | None -> []
    in
    peers @ metrics
  in
  let read, write =
    IntMap.fold
      (fun _ s (r, w) ->
        let r =
          match s.closing with
          | Some _ -> r
          | None ->
            if s.out_bytes > max_outbound_bytes then r
            else s.conn :: r
        in
        let w = if Queue.is_empty s.outq then w else s.conn :: w in
        (r, w))
      t.sessions ([], [])
  in
  let read, write =
    IntMap.fold
      (fun _ h (r, w) ->
        match h.resp with
        | None -> (h.hconn :: r, w)
        | Some _ -> (r, h.hconn :: w))
      t.https (read, write)
  in
  (listeners, read, write)

(* Each phase that did any work this iteration records its duration;
   iterations whose total busy time (the select wait excluded) exceeds
   config.slow_iteration_ms bump loop.slow_iterations. One extra
   mono_ms read per active phase — noise next to the syscalls the
   phases themselves make. *)
let iterate t =
  let iter_start = Unix_compat.mono_ms () in
  if t.stop_requested && not t.stop_initiated then begin
    t.stop_initiated <- true;
    t.stop_deadline <- iter_start +. drain_grace_ms;
    match t.peer_listener with
    | Some l ->
      t.peer_listener <- None;
      Unix_compat.close_listener l
    | None -> ()
  end;
  if t.stop_initiated && Unix_compat.mono_ms () > t.stop_deadline then
    IntMap.iter (fun _ s -> fail_session t s "shutdown") t.sessions;
  let now = Unix_compat.mono_ms () in
  Obs.Registry.set t.g_uptime ((now -. t.started_ms) /. 1000.);
  (* SIGQUIT handler only flips the flag; the dump's IO happens here,
     on the loop's own thread of control. *)
  if t.flight_dump_requested then begin
    t.flight_dump_requested <- false;
    write_flight_dump t
  end;
  if now >= t.next_gauge_refresh then begin
    t.next_gauge_refresh <- now +. gauge_refresh_ms;
    refresh_runtime_gauges t
  end;
  let due, wheel = Timer_wheel.expired t.wheel ~now_ms:now in
  t.wheel <- wheel;
  (match due with
  | [] -> ()
  | due ->
    let t0 = Unix_compat.mono_ms () in
    List.iter (fun ((_ : Timer_wheel.id), ev) -> fire t ev) due;
    Obs.Registry.observe t.h_timer (Unix_compat.mono_ms () -. t0));
  reap t;
  let listeners, read, write = build_interest t in
  let timeout_s =
    let cap = 0.25 in
    match Timer_wheel.next_deadline t.wheel with
    | None -> cap
    | Some at ->
      Float.min cap (Float.max 0. ((at -. Unix_compat.mono_ms ()) /. 1000.))
  in
  let select_start = Unix_compat.mono_ms () in
  match Unix_compat.wait_ready ~listeners ~read ~write ~timeout_s with
  | Error e -> t.fatal <- Some e
  | Ok ready ->
    let select_ms = Unix_compat.mono_ms () -. select_start in
    (match ready.Unix_compat.accept_ready with
    | [] -> ()
    | accepts ->
      let t0 = Unix_compat.mono_ms () in
      List.iter
        (fun l ->
          let lid = Unix_compat.listener_id l in
          (match t.peer_listener with
          | Some pl when Unix_compat.listener_id pl = lid -> accept_peers t
          | Some _ | None -> ());
          match t.metrics_listener with
          | Some ml when Unix_compat.listener_id ml = lid -> accept_metrics t
          | Some _ | None -> ())
        accepts;
      Obs.Registry.observe t.h_accept (Unix_compat.mono_ms () -. t0));
    (match ready.Unix_compat.read_ready with
    | [] -> ()
    | reads ->
      let t0 = Unix_compat.mono_ms () in
      List.iter
        (fun c ->
          match IntMap.find_opt (Unix_compat.conn_id c) t.by_fd with
          | Some (Session_fd sid) -> begin
            match IntMap.find_opt sid t.sessions with
            | Some s -> pump_read t s
            | None -> ()
          end
          | Some (Http_fd hid) -> begin
            match IntMap.find_opt hid t.https with
            | Some h -> pump_http_read t h
            | None -> ()
          end
          | None -> ())
        reads;
      Obs.Registry.observe t.h_read (Unix_compat.mono_ms () -. t0));
    (match ready.Unix_compat.write_ready with
    | [] -> ()
    | writes ->
      let t0 = Unix_compat.mono_ms () in
      List.iter
        (fun c ->
          match IntMap.find_opt (Unix_compat.conn_id c) t.by_fd with
          | Some (Session_fd sid) -> begin
            match IntMap.find_opt sid t.sessions with
            | Some s -> pump_write t s
            | None -> ()
          end
          | Some (Http_fd hid) -> begin
            match IntMap.find_opt hid t.https with
            | Some h -> pump_http_write t h
            | None -> ()
          end
          | None -> ())
        writes;
      Obs.Registry.observe t.h_write (Unix_compat.mono_ms () -. t0));
    reap t;
    let busy_ms = Unix_compat.mono_ms () -. iter_start -. select_ms in
    if busy_ms > t.config.slow_iteration_ms then begin
      Obs.Registry.incr t.c_slow;
      (* A slow iteration is exactly when the recent-history ring is
         most valuable — dump it, rate-limited so a persistently slow
         loop does not spend its time serializing its own black box. *)
      let after = Unix_compat.mono_ms () in
      if after -. t.last_flight_dump >= flight_dump_min_interval_ms then
        write_flight_dump t
    end

let request_stop t = t.stop_requested <- true

let finish_shutdown t =
  let https = IntMap.fold (fun _ h acc -> h :: acc) t.https [] in
  List.iter (fun h -> close_http t h) (List.rev https);
  (match t.metrics_listener with
  | Some l ->
    t.metrics_listener <- None;
    Unix_compat.close_listener l
  | None -> ());
  (match t.peer_listener with
  | Some l ->
    t.peer_listener <- None;
    Unix_compat.close_listener l
  | None -> ());
  (match save_if_dirty t with
  | Ok () -> ()
  | Error (_ : string) -> ());
  Node_store.flush_trace t.store

let shutdown t =
  t.stop_requested <- true;
  t.stop_initiated <- true;
  let stragglers = IntMap.fold (fun _ s acc -> s :: acc) t.sessions [] in
  List.iter (fun s -> fail_session t s "shutdown") (List.rev stragglers);
  reap t;
  finish_shutdown t

let nothing_pending t =
  (match t.peer_listener with None -> true | Some _ -> false)
  && (match t.metrics_listener with None -> true | Some _ -> false)
  && IntMap.is_empty t.sessions && IntMap.is_empty t.https
  && Timer_wheel.is_empty t.wheel

let run ?(until = fun (_ : stats) -> false) t =
  let rec go () =
    match t.fatal with
    | Some e -> Error e
    | None ->
      if until (stats t) then Ok ()
      else if t.stop_initiated && IntMap.is_empty t.sessions then begin
        finish_shutdown t;
        match t.fatal with Some e -> Error e | None -> Ok ()
      end
      else if nothing_pending t then Ok ()
      else begin
        iterate t;
        go ()
      end
  in
  go ()
