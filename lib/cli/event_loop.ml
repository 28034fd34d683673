(* The poll-based event-loop host: one process multiplexing N concurrent
   Peer_engine exchange sessions, the /metrics HTTP endpoint, and
   periodic anti-entropy dials over non-blocking sockets.

   This is the CLI's only socket host: daemon, serve, sync --live and
   serve --metrics each drive a loop over their store directly. The
   protocol brain stays the sans-IO Peer_engine — the loop only moves
   bytes, applies Deliver effects to the store's node, turns Set_timer
   effects into timer-wheel deadlines, and maps Trace effects to obs
   events through Obs.Engine_events (the simulator's mapping too), so a
   daemon session and a `sync --live` session run byte-for-byte the
   same exchange. Three decisions live in modules that need no socket
   and read no clock: a session's frame reassembly and output queue
   (Framing), the HTTP subset (Http) and which peer to dial when
   (Anti_entropy). The host owns the sockets, the clock and the wheel.

   Structure of one loop iteration (run):
     1. fire due timers (engine deadlines, housekeeping wakeups, dial
        deadlines, anti-entropy dials, idle sweeps);
     2. reap sessions that finished or failed;
     3. one wait_ready (select) over: the peer listener (only while
        under the session budget — backpressure at accept), the metrics
        listener, every session conn (reads gated while its outbound
        queue is over budget), every conn with queued output, and every
        dial still connecting;
     4. pump readiness: accept, frame reads, HTTP reads, resolved dials,
        queued writes; reap again.

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

(* Per-session backpressure: stop reading a session's requests (and so
   stop generating replies) while this much output is queued. *)
let max_outbound_bytes = 8 * 1024 * 1024

(* No bytes moved either way for this long: the session failed. *)
let idle_timeout_ms = 30_000.

(* Graceful shutdown: sessions still open this long after request_stop
   are force-closed. *)
let drain_grace_ms = 5_000.

(* Stop accepting new peer conns while this many sessions are active:
   the backlog queues in the kernel's accept queue, not in memory. *)
let session_budget = 128

(* Self-profiling: iterations whose busy time (select wait excluded)
   exceeds this bump loop.slow_iterations. *)
let slow_iteration_ms = 100.

type config = {
  mode : Reconcile.mode;
  stale_after_ms : float;
  session_timeout_ms : float;
  trace_sample : float;
      (* head-sampling rate for cross-daemon span tracing, handed to
         every hosted engine; 0. = off (no Trace_context frames) *)
}

let default_config =
  {
    mode = Reconcile.Naive;
    stale_after_ms = 2_000.;
    session_timeout_ms = 20_000.;
    trace_sample = 0.;
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

(* Where a session is: an outbound one waits for its connect, then every
   session runs the symmetric pull-then-serve exchange. The
   drain-to-close tail is [closing], not a phase: a finished session
   only flushes its queue. *)
type phase = Connecting | Pulling | Serving

type closing = Complete | Failed of string

type session = {
  sid : int;
  conn : Unix_compat.conn;
  origin : [ `Inbound | `Outbound ];
  label : string;  (* telemetry identity of the far end *)
  mutable engine : Peer_engine.t;
  frames : Framing.t;  (* incremental frame reader and outbound queue *)
  mutable phase : phase;
  mutable closing : closing option;
  mutable timeout_timer : Timer_wheel.id option;
      (* the dial deadline while Connecting, then the engine's session
         deadline *)
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
  head : Http.head;
  mutable resp : string option;
  mutable resp_off : int;
  mutable is_scrape : bool;
  mutable h_last_io : float;
}

(* What a timer-wheel entry does when it fires. *)
type tev =
  | Engine_timer of int * Peer_engine.timer_key
  | Housekeep of int  (* Peer_engine.next_wakeup: Tick {peer = None} *)
  | Dial_deadline of int  (* a session still connecting fails *)
  | Dial_round  (* one anti-entropy period *)
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
  mutable ae : Anti_entropy.t option;
  mutable stop_requested : bool;
  mutable stop_initiated : bool;
  mutable stop_deadline : float;
  mutable dirty : bool;  (* an intake made blocks resident since the last save *)
  mutable fatal : string option;
  mutable idle_armed : bool;
  mutable n_dialed : int;
  mutable n_http_closed : int;
  mutable n_delivered : int;
  mutable n_served : int;
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
  let flight = Obs.Flight.create () in
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
      n_dialed = 0;
      n_http_closed = 0;
      n_delivered = 0;
      n_served = 0;
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

(* {2 Flight recorder} *)

let flight_dump t = Obs.Flight.dump t.flight ~snapshot:(merged_snapshot t)

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
  let count = Obs.Registry.counter_value in
  {
    accepted = count t.c_accepted;
    dialed = t.n_dialed;
    dial_failures = count t.c_dial_failures;
    completed = count t.c_completed;
    failed = count t.c_failed;
    active = IntMap.cardinal t.sessions;
    scrapes = count t.c_scrapes;
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

let journal_started t s =
  journal t [ Obs.Event.Sync_started { node = t.me; peer = s.label } ]

let set_active t =
  Obs.Registry.set t.g_active (float_of_int (IntMap.cardinal t.sessions))

let schedule t ~at_ms ev =
  let w, id = Timer_wheel.schedule t.wheel ~at_ms ev in
  t.wheel <- w;
  id

let arm t ~at_ms ev =
  let (_ : Timer_wheel.id) = schedule t ~at_ms ev in
  ()

let cancel t = function
  | Some id -> t.wheel <- Timer_wheel.cancel t.wheel id
  | None -> ()

let arm_idle_sweep t =
  if not t.idle_armed then begin
    t.idle_armed <- true;
    let period = Float.max 1_000. (idle_timeout_ms /. 4.) in
    arm t ~at_ms:(Unix_compat.mono_ms () +. period) Idle_sweep
  end

(* Mark a session dead. Its queue is dropped (the conn is either broken
   or mid-protocol-error; flushing would only confuse the peer) and the
   reap pass finalizes it. Idempotent: first cause wins. *)
let fail_session s msg =
  match s.closing with
  | Some _ -> ()
  | None ->
    s.closing <- Some (Failed msg);
    Framing.discard_output s.frames

let save_if_dirty t =
  if not t.dirty then Ok ()
  else begin
    t.dirty <- false;
    Node_store.save t.store
  end

let apply_effect t s (eff : Peer_engine.effect_) =
  match eff with
  | Peer_engine.Send { dst = _; bytes } -> Framing.enqueue s.frames bytes
  | Peer_engine.Set_timer { key; after_ms } -> begin
    match key with
    | Peer_engine.Session_timeout _ ->
      cancel t s.timeout_timer;
      s.timeout_timer <-
        Some
          (schedule t
             ~at_ms:(Unix_compat.mono_ms () +. after_ms)
             (Engine_timer (s.sid, key)))
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
    | Peer_engine.Session_aborted { reason; _ } ->
      journal_ev ();
      fail_session s
        (match reason with
        | Peer_engine.Stalled -> "sync failed: the peer stopped answering"
        | Peer_engine.Timed_out -> "sync failed: session deadline exceeded")
    | Peer_engine.Session_started _ | Peer_engine.Request_resent _
    | Peer_engine.Session_completed _ | Peer_engine.Blocks_served _
    | Peer_engine.Redundant_received _ | Peer_engine.Peer_advertised _
    | Peer_engine.Request_suppressed _ | Peer_engine.Reply_ignored _
    | Peer_engine.Decode_failed _ ->
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
  cancel t s.wakeup_timer;
  s.wakeup_timer <- None;
  (match s.closing with
  | Some _ -> ()
  | None -> begin
    match Peer_engine.next_wakeup s.engine with
    | Some at -> s.wakeup_timer <- Some (schedule t ~at_ms:at (Housekeep s.sid))
    | None -> ()
  end);
  (match s.pulled with
  | Some _ when not s.turned -> begin
    s.turned <- true;
    (* Our pull is done: hand the turn over (empty frame). For an
       outbound session that opens the serve phase; for an inbound one
       the pull-back was the exchange's tail, so the sentinel is the
       final frame and the session drains to close. *)
    Framing.enqueue s.frames "";
    match s.origin with
    | `Outbound -> s.phase <- Serving
    | `Inbound -> (
      match s.closing with
      | None -> s.closing <- Some Complete
      | Some _ -> ())
  end
  | Some _ | None -> ());
  effects

let pull t s =
  let (_ : Peer_engine.effect_ list) =
    step t s (Peer_engine.Tick { peer = Some remote_id })
  in
  ()

let complete s = match s.closing with None -> s.closing <- Some Complete | Some _ -> ()

let dispatch_frame t s frame =
  if String.length frame = 0 then begin
    match s.phase with
    | Connecting | Pulling ->
      fail_session s "protocol error: turn-over sentinel inside a session"
    | Serving -> begin
      match s.origin with
      | `Inbound ->
        (* The remote's pull is over; pull back. *)
        s.phase <- Pulling;
        pull t s
      | `Outbound ->
        (* The remote finished serving our pull-back: exchange done. *)
        complete s
    end
  end
  else begin
    let in_serving =
      match s.phase with Serving -> true | Connecting | Pulling -> false
    in
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

let on_eof s =
  if Framing.mid_frame s.frames then
    fail_session s "peer closed the connection mid-frame"
  else begin
    match (s.phase, s.origin) with
    | Serving, `Outbound ->
      (* The remote finished its pull-back and hung up instead of
         sending the final sentinel — complete either way. *)
      complete s
    | Serving, `Inbound -> fail_session s "peer closed the connection before turn-over"
    | (Connecting | Pulling), (`Inbound | `Outbound) ->
      fail_session s "peer closed the connection mid-session"
  end

(* Drain whatever the kernel has for this session, dispatching every
   completed frame. Stops at `Would_block, on session death, or when the
   outbound queue is over budget (backpressure: un-read requests stay in
   the kernel buffer until we have flushed the replies they would
   generate). *)
let pump_read t s =
  let read buf ~pos ~len =
    let r = Unix_compat.read_nb s.conn buf ~pos ~len in
    (match r with
    | Ok (`Read _) -> s.last_io <- Unix_compat.mono_ms ()
    | Ok (`Eof | `Would_block) | Error _ -> ());
    r
  in
  let rec go () =
    match s.closing with
    | Some _ -> ()
    | None ->
      if Framing.queued_bytes s.frames > max_outbound_bytes then ()
      else begin
        match Framing.read_frame s.frames ~read with
        | Error e -> fail_session s e
        | Ok `Would_block -> ()
        | Ok `Eof -> on_eof s
        | Ok (`Frame frame) ->
          dispatch_frame t s frame;
          go ()
      end
  in
  go ()

let pump_write s =
  let write buf ~pos ~len =
    let r = Unix_compat.write_nb s.conn buf ~pos ~len in
    (match r with
    | Ok (`Wrote _) -> s.last_io <- Unix_compat.mono_ms ()
    | Ok `Would_block | Error _ -> ());
    r
  in
  match Framing.flush s.frames ~write with Ok () -> () | Error e -> fail_session s e

(* {2 Dials} *)

let set_dial_failures t label n =
  Obs.Registry.set
    (Obs.Registry.gauge (Obs.Context.registry t.ctx) ~node:label
       "daemon.dial_consecutive_failures")
    (float_of_int n)

(* A dial resolved: a configured anti-entropy peer's backoff and its
   consecutive-failures gauge follow. *)
let tell_policy t label ~ok =
  match t.ae with
  | None -> ()
  | Some ae ->
    if ok then Anti_entropy.connected ae label
    else Anti_entropy.failed ae ~now_ms:(Unix_compat.mono_ms ()) label;
    Option.iter (set_dial_failures t label) (Anti_entropy.failures ae label)

let dial_failed t label =
  Obs.Registry.incr t.c_dial_failures;
  Option.iter (fun l -> tell_policy t l ~ok:false) label

(* Retire a finished session: record the completion (or the failure),
   persist the store if this loop delivered anything, close the conn.
   A dial that never connected counts as a dial failure, not a session.
   Outcomes stay queryable by session id. *)
let finalize t s =
  cancel t s.timeout_timer;
  cancel t s.wakeup_timer;
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
  (match (s.phase, error) with
  | Connecting, (Some _ | None) -> dial_failed t (Some s.label)
  | (Pulling | Serving), None -> Obs.Registry.incr t.c_completed
  | (Pulling | Serving), Some _ -> Obs.Registry.incr t.c_failed);
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
        | Some Complete when not (Framing.has_output s.frames) -> s :: acc
        | Some Complete | None -> acc)
      t.sessions []
  in
  List.iter (finalize t) (List.rev finished)

let new_session t ~origin ~phase ?label conn =
  let sid = t.next_id in
  t.next_id <- sid + 1;
  let label =
    match label with Some l -> l | None -> "peer-" ^ string_of_int sid
  in
  let node = t.store.Node_store.node in
  (* Each session runs a fresh engine that pulls at most once: starting
     it at [sid - 1] numbers that pull [sid], unique for the loop's
     lifetime, so every session gets its own sampling decision and
     trace id. *)
  let engine =
    Peer_engine.create ~generation:(sid - 1)
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
      frames = Framing.create ();
      phase;
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
  s

(* A connecting session's conn turned writable: the dial resolved. A
   connected one opens its exchange with a pull. *)
let on_connect_ready t s =
  match Unix_compat.connect_result s.conn with
  | Error e -> fail_session s e
  | Ok () ->
    cancel t s.timeout_timer;
    s.timeout_timer <- None;
    s.phase <- Pulling;
    s.last_io <- Unix_compat.mono_ms ();
    t.n_dialed <- t.n_dialed + 1;
    tell_policy t s.label ~ok:true;
    journal_started t s;
    pull t s;
    pump_write s

let connect_exchange ?label ?timeout_s t ~host ~port () =
  match Unix_compat.connect_start ~host ~port () with
  | Error e ->
    dial_failed t label;
    Error e
  | Ok conn ->
    let s = new_session t ~origin:`Outbound ~phase:Connecting ?label conn in
    Option.iter
      (fun secs ->
        let at_ms = Unix_compat.mono_ms () +. (secs *. 1000.) in
        s.timeout_timer <- Some (schedule t ~at_ms (Dial_deadline s.sid)))
      timeout_s;
    Ok s.sid

(* {2 The /metrics and /health HTTP side} *)

(* The GET /health body: node identity and uptime, the daemon counters
   (with the recent anti-entropy dial order), the monitor's derived
   health, the per-peer scoreboard, and the loop's self-profiling
   section (every loop.* metric of the live registry). One JSON object,
   composed from the byte-stable obs renderers. *)
let health_body t =
  let st = stats t in
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
  add (string_of_int st.accepted);
  int_field "dialed" st.dialed;
  int_field "dial_failures" st.dial_failures;
  int_field "completed" st.completed;
  int_field "failed" st.failed;
  int_field "active" st.active;
  int_field "scrapes" st.scrapes;
  int_field "delivered" st.delivered;
  int_field "served" st.served;
  add ",\"dials\":[";
  List.iteri
    (fun i l ->
      if i > 0 then add ",";
      add (Obs.Event.json_string l))
    (match t.ae with Some ae -> Anti_entropy.dials ae | None -> []);
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

let scrape_body t = function
  | Http.Metrics -> t.render ()
  | Http.Health -> health_body t
  | Http.Spans -> Obs.Span.render_json (Obs.Span.Collector.spans t.span_ring)
  | Http.Flight -> flight_dump t
  | Http.Registry -> Obs.Registry.render_json (merged_snapshot t)

let close_http t h =
  t.by_fd <- IntMap.remove (Unix_compat.conn_id h.hconn) t.by_fd;
  Unix_compat.close_conn h.hconn;
  t.https <- IntMap.remove h.hid t.https;
  t.n_http_closed <- t.n_http_closed + 1

(* Feed the request head whatever the kernel has (a scraper dribbling
   its request one byte at a time never blocks the loop) and compose the
   answer once Http has a verdict. *)
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
      | Ok (`Read n) -> begin
        h.h_last_io <- Unix_compat.mono_ms ();
        match Http.feed h.head t.rdbuf ~pos:0 ~len:n with
        | None -> go ()
        | Some verdict ->
          h.is_scrape <-
            (match verdict with
            | Http.Scrape _ -> true
            | Http.Not_found | Http.Bad_request -> false);
          h.resp <- Some (Http.answer verdict ~body:(scrape_body t))
      end
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
        if h.is_scrape then Obs.Registry.incr t.c_scrapes;
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

let accept_peers t =
  match t.peer_listener with
  | None -> ()
  | Some l ->
    let rec go () =
      if IntMap.cardinal t.sessions >= session_budget then ()
      else begin
        match Unix_compat.accept_nb l with
        | Error _ -> ()  (* transient (fd pressure); retry next round *)
        | Ok `Would_block -> ()
        | Ok (`Conn conn) ->
          Obs.Registry.incr t.c_accepted;
          journal_started t (new_session t ~origin:`Inbound ~phase:Serving conn);
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
            head = Http.head ();
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
  let ae = Anti_entropy.create ~every_ms ~dial_timeout_s ~peers in
  List.iter (fun label -> set_dial_failures t label 0) (Anti_entropy.labels ae);
  t.ae <- Some ae;
  arm t ~at_ms:(Unix_compat.mono_ms () +. every_ms) Dial_round

let has_session_with t label =
  IntMap.exists (fun _ s -> String.equal s.label label) t.sessions

(* One anti-entropy round: the policy picks the peer (scoreboard
   priority, skipping peers mid-exchange with us or backed off); the
   loop starts the dial, which resolves later without blocking. *)
let dial_next t ae =
  match
    Anti_entropy.choose ae ~now_ms:(Unix_compat.mono_ms ())
      ~priority:(Obs.Scoreboard.priority t.scoreboard)
      ~busy:(has_session_with t)
  with
  | None -> ()  (* everyone backed off or mid-exchange; next round *)
  | Some { Anti_entropy.host; port; label } ->
    let (_ : (int, string) result) =
      connect_exchange ~label ~timeout_s:(Anti_entropy.dial_timeout_s ae) t ~host
        ~port ()
    in
    ()

let idle_sweep t =
  t.idle_armed <- false;
  let now = Unix_compat.mono_ms () in
  (* A connecting session is bounded by its dial deadline (or the
     kernel's), not by the idle timeout. *)
  IntMap.iter
    (fun _ s ->
      match (s.closing, s.phase) with
      | None, (Pulling | Serving) ->
        if now -. s.last_io > idle_timeout_ms then
          fail_session s "timed out waiting for the peer"
      | None, Connecting | Some _, (Connecting | Pulling | Serving) -> ())
    t.sessions;
  let stale =
    IntMap.fold
      (fun _ h acc -> if now -. h.h_last_io > http_idle_ms then h :: acc else acc)
      t.https []
  in
  List.iter (fun h -> close_http t h) (List.rev stale);
  if not (IntMap.is_empty t.sessions && IntMap.is_empty t.https) then
    arm_idle_sweep t

(* The open session [sid], if any. *)
let live t sid =
  match IntMap.find_opt sid t.sessions with
  | Some ({ closing = None; _ } as s) -> Some s
  | Some { closing = Some _; _ } | None -> None

let fire t ev =
  match ev with
  | Engine_timer (sid, key) ->
    Option.iter
      (fun s ->
        let (_ : Peer_engine.effect_ list) =
          step t s (Peer_engine.Timer_fired key)
        in
        ())
      (live t sid)
  | Housekeep sid ->
    Option.iter
      (fun s ->
        s.wakeup_timer <- None;
        let (_ : Peer_engine.effect_ list) =
          step t s (Peer_engine.Tick { peer = None })
        in
        ())
      (live t sid)
  | Dial_deadline sid ->
    Option.iter
      (fun s ->
        match s.phase with
        | Connecting ->
          s.timeout_timer <- None;
          fail_session s Unix_compat.connect_timeout_error
        | Pulling | Serving -> ())
      (live t sid)
  | Dial_round -> begin
    match t.ae with
    | None -> ()
    | Some ae ->
      if not t.stop_requested then begin
        if IntMap.cardinal t.sessions < session_budget then dial_next t ae;
        arm t ~at_ms:(Unix_compat.mono_ms () +. Anti_entropy.every_ms ae) Dial_round
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
             && IntMap.cardinal t.sessions < session_budget ->
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
        match s.phase with
        | Connecting ->
          (* writable = the dial resolved *)
          if Option.is_none s.closing then (r, s.conn :: w) else (r, w)
        | Pulling | Serving ->
          let r =
            match s.closing with
            | Some _ -> r
            | None ->
              if Framing.queued_bytes s.frames > max_outbound_bytes then r
              else s.conn :: r
          in
          let w = if Framing.has_output s.frames then s.conn :: w else w in
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

(* Run a phase over its work items and, when there were any, record its
   duration. *)
let timed h items f =
  match items with
  | [] -> ()
  | _ :: _ ->
    let t0 = Unix_compat.mono_ms () in
    List.iter f items;
    Obs.Registry.observe h (Unix_compat.mono_ms () -. t0)

(* Each phase that did any work this iteration records its duration;
   iterations whose total busy time (the select wait excluded) exceeds
   slow_iteration_ms bump loop.slow_iterations. One extra mono_ms read
   per active phase — noise next to the syscalls the phases themselves
   make. *)
let iterate t =
  let iter_start = Unix_compat.mono_ms () in
  if t.stop_requested && not t.stop_initiated then begin
    t.stop_initiated <- true;
    t.stop_deadline <- iter_start +. drain_grace_ms;
    Option.iter Unix_compat.close_listener t.peer_listener;
    t.peer_listener <- None
  end;
  if t.stop_initiated && Unix_compat.mono_ms () > t.stop_deadline then
    IntMap.iter (fun _ s -> fail_session s "shutdown") t.sessions;
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
  timed t.h_timer due (fun ((_ : Timer_wheel.id), ev) -> fire t ev);
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
    let owner session http c =
      match IntMap.find_opt (Unix_compat.conn_id c) t.by_fd with
      | Some (Session_fd sid) -> Option.iter session (IntMap.find_opt sid t.sessions)
      | Some (Http_fd hid) -> Option.iter http (IntMap.find_opt hid t.https)
      | None -> ()
    in
    timed t.h_accept ready.Unix_compat.accept_ready (fun l ->
        let lid = Unix_compat.listener_id l in
        let is l' = Int.equal (Unix_compat.listener_id l') lid in
        if Option.fold ~none:false ~some:is t.peer_listener then accept_peers t;
        if Option.fold ~none:false ~some:is t.metrics_listener then accept_metrics t);
    timed t.h_read ready.Unix_compat.read_ready
      (owner (pump_read t) (pump_http_read t));
    timed t.h_write ready.Unix_compat.write_ready
      (owner
         (fun s ->
           match s.phase with
           | Connecting -> if Option.is_none s.closing then on_connect_ready t s
           | Pulling | Serving -> pump_write s)
         (pump_http_write t));
    reap t;
    let busy_ms = Unix_compat.mono_ms () -. iter_start -. select_ms in
    if busy_ms > slow_iteration_ms then begin
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
  Option.iter Unix_compat.close_listener t.metrics_listener;
  t.metrics_listener <- None;
  Option.iter Unix_compat.close_listener t.peer_listener;
  t.peer_listener <- None;
  (match save_if_dirty t with
  | Ok () -> ()
  | Error (_ : string) -> ());
  Node_store.flush_trace t.store

let shutdown t =
  t.stop_requested <- true;
  t.stop_initiated <- true;
  let stragglers = IntMap.fold (fun _ s acc -> s :: acc) t.sessions [] in
  List.iter (fun s -> fail_session s "shutdown") (List.rev stragglers);
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
