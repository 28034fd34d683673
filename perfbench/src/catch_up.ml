(* catch-up: a daemon child (Daemon) serves its static replica; the
   generator hosts a fresh client replica on its own Event_loop for
   every exchange, and that replica pulls the daemon's whole replica in
   one digest exchange. Closed loop, one exchange at a time. The
   generator dials every exchange itself; nothing on a measured path
   waits for an anti-entropy timer. *)

open Vegvisir
module Event_loop = Vegvisir_cli.Event_loop
module Node_store = Vegvisir_cli.Node_store

let ( // ) = Filename.concat
let config = { Event_loop.default_config with Event_loop.mode = Reconcile.Digest }
let self_cpu_s = Daemon.self_cpu_s
let mono_ms = Vegvisir_cli.Unix_compat.mono_ms

(* Set-ups timed per run. The first starts the daemon that serves the
   run; the others are spread evenly over the measured window (with the
   serving daemon idle), so that their median samples the whole run
   rather than its first second. *)
let setup_trials = 9

type run = {
  setup_trials : float list;  (** seconds, one per set-up *)
  latencies_ms : float list;  (** measured exchanges, dial to outcome *)
  attempted : int;
  ok : int;  (** completed cleanly and passed the check *)
  window_s : float;  (** wall time of the measured window, set-ups excluded *)
  busy_s : float;  (** summed exchange durations *)
  blocks : int;  (** blocks pulled in the window *)
  cpu_s : float;  (** daemon plus generator CPU in the window, set-ups excluded *)
  daemon_cpu_s : float;
  wire : (float * int) list;
      (** (protocol bytes, blocks carried) per pull — each client
          exchange, then the daemon's pulls as one total — from both
          peers' Reconcile.stats, warm-up included *)
  wire_blocks : float;
  rounds : float;  (** both peers' pull rounds, warm-up included *)
  redundant : float;
  exchanges_total : int;  (** warm-up included *)
  max_rss_mb : float;
  daemon : (string * float) list;  (** the serving daemon's exit report *)
  gen_gc_major : int;
  gen_heap_words : int;
  correct : bool;
}

let or_fail = function Ok v -> v | Error e -> failwith e

let admit_now () =
  Timestamp.add_ms (Timestamp.of_seconds (Unix.gettimeofday ())) Validation.default_max_skew_ms

let load_client dir =
  let store = or_fail (Node_store.load ~dir) in
  Node_store.buffer_telemetry store true;
  store

(* One set-up, timed as the daemon's own load-to-listening plus a fresh
   client replica's load, run side by side on the two cores. *)
let setup ~exe ~fx ~ddir ~cdir =
  Fixture.install_client fx ~dir:cdir;
  let d = Daemon.spawn ~exe ~dir:ddir in
  let t0 = Unix.gettimeofday () in
  let client = load_client cdir in
  let client_s = Unix.gettimeofday () -. t0 in
  let port, daemon_s = Daemon.await_ready d in
  (d, port, client, daemon_s +. client_s)

(* Drive [loop] until session [sid] has an outcome. *)
let finish loop sid =
  let done_ () = Option.is_some (Event_loop.outcome loop sid) in
  ignore (Event_loop.run ~until:(fun _ -> done_ ()) loop);
  match Event_loop.outcome loop sid with
  | Some o -> o
  | None -> { Event_loop.pulled = None; delivered = 0; served = 0; error = Some "no outcome" }

let pulled_sum f (o : Event_loop.outcome) =
  match o.Event_loop.pulled with Some s -> f s | None -> 0

let bytes_of s = s.Reconcile.bytes_sent + s.Reconcile.bytes_received

type acc = {
  mutable c_wire : (float * int) list;  (** newest first *)
  mutable c_blocks : int;
  mutable c_rounds : int;
  mutable c_redundant : int;
  mutable c_exchanges : int;
}

let tally acc o =
  acc.c_wire <-
    (float_of_int (pulled_sum bytes_of o), pulled_sum (fun s -> s.Reconcile.blocks_received) o)
    :: acc.c_wire;
  acc.c_blocks <- acc.c_blocks + pulled_sum (fun s -> s.Reconcile.blocks_received) o;
  acc.c_rounds <- acc.c_rounds + pulled_sum (fun s -> s.Reconcile.rounds) o;
  acc.c_redundant <- acc.c_redundant + pulled_sum (fun s -> s.Reconcile.redundant_blocks) o;
  acc.c_exchanges <- acc.c_exchanges + 1

let get report k = Option.value ~default:0. (List.assoc_opt k report)

let run ~exe ~fx ~work ~seconds =
  let cdir = work // "client" in
  Fixture.install_daemon fx ~dir:(work // "daemon");
  Fixture.install_daemon fx ~dir:(work // "setup-daemon");
  let d, port, first, s0 = setup ~exe ~fx ~ddir:(work // "daemon") ~cdir in
  let trials = ref [ s0 ] in
  let acc = { c_wire = []; c_blocks = 0; c_rounds = 0; c_redundant = 0; c_exchanges = 0 } in
  let want = fx.Fixture.replica in
  let exchange store =
    let loop = Event_loop.create ~store ~config () in
    let t0 = mono_ms () in
    let sid = or_fail (Event_loop.connect_exchange loop ~host:"127.0.0.1" ~port ()) in
    let o = finish loop sid in
    let dt = mono_ms () -. t0 in
    tally acc o;
    let dag = Node.dag store.Node_store.node in
    let ok =
      Option.is_none o.Event_loop.error
      && Dag.cardinal dag = Dag.cardinal want
      && Hash_id.Set.equal (Dag.frontier dag) (Dag.frontier want)
    in
    (dt, pulled_sum (fun s -> s.Reconcile.blocks_received) o, ok)
  in
  (* One warm-up exchange, outside the window. *)
  ignore (exchange first);
  let gc0 = Gc.quick_stat () in
  let d_cpu0 = Proc.cpu_s ~pid:d.Daemon.pid () and g_cpu0 = self_cpu_s () in
  let start = mono_ms () in
  (* Wall time and generator CPU of the set-ups inside the window. *)
  let aside_ms = ref 0. and aside_cpu = ref 0. in
  let measured () = mono_ms () -. start -. !aside_ms in
  let window_ms = seconds *. 1000. in
  let trial () =
    let w0 = mono_ms () and c0 = self_cpu_s () in
    let td, _, _, s =
      setup ~exe ~fx ~ddir:(work // "setup-daemon") ~cdir:(work // "setup-client")
    in
    Daemon.kill td;
    trials := s :: !trials;
    aside_ms := !aside_ms +. (mono_ms () -. w0);
    aside_cpu := !aside_cpu +. (self_cpu_s () -. c0)
  in
  let rec go rs =
    let t = measured () in
    if t >= window_ms then List.rev rs
    else if
      List.length !trials < setup_trials
      && t >= window_ms *. float_of_int (List.length !trials) /. float_of_int setup_trials
    then begin
      trial ();
      go rs
    end
    else begin
      Fixture.install_client fx ~dir:cdir;
      go (exchange (load_client cdir) :: rs)
    end
  in
  let rs = go [] in
  let window_s = measured () /. 1000. in
  let d_cpu = Proc.cpu_s ~pid:d.Daemon.pid () -. d_cpu0 in
  let cpu_s = d_cpu +. (self_cpu_s () -. g_cpu0 -. !aside_cpu) in
  let report = Daemon.stop d in
  let lat = List.map (fun (dt, _, _) -> dt) rs in
  let n_ok = List.length (List.filter (fun (_, _, ok) -> ok) rs) in
  let gc1 = Gc.quick_stat () in
  {
    setup_trials = List.rev !trials;
    latencies_ms = lat;
    attempted = List.length rs;
    ok = n_ok;
    window_s;
    busy_s = List.fold_left ( +. ) 0. lat /. 1000.;
    blocks = List.fold_left (fun a (_, b, _) -> a + b) 0 rs;
    cpu_s;
    daemon_cpu_s = d_cpu;
    wire =
      List.rev acc.c_wire @ [ (get report "pull_bytes", int_of_float (get report "pull_blocks")) ];
    wire_blocks = float_of_int acc.c_blocks +. get report "pull_blocks";
    rounds = float_of_int acc.c_rounds +. get report "pull_rounds";
    redundant = float_of_int acc.c_redundant +. get report "pull_redundant";
    exchanges_total = acc.c_exchanges;
    max_rss_mb = Float.max (get report "vmhwm_mb") (Proc.vmhwm_mb ());
    daemon = report;
    gen_gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    gen_heap_words = gc1.Gc.heap_words;
    correct = n_ok = List.length rs;
  }
