(* The system under test: the code path of `vegvisir-cli daemon --mode
   digest` (Node_store.load, buffered telemetry, Event_loop.create /
   listen_peers / run, SIGINT/SIGTERM drain), hosted in a child process
   of the benchmark so that it has its own heap, CPU account and RSS.

   Protocol with the parent, one line each on stdout:
     ready PORT SETUP_S        once listening
     report KEY=VALUE ...      after the drain, just before exit
   The report carries what only the daemon can see: its sessions'
   Reconcile.stats, the loop.* phase histograms, GC counters and the
   CPU it spent while serving. *)

open Vegvisir
module Event_loop = Vegvisir_cli.Event_loop
module Node_store = Vegvisir_cli.Node_store
module Registry = Vegvisir_obs.Registry

let phases = [ "accept"; "read"; "engine_step"; "write"; "timer"; "sweep" ]

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let histogram snap name =
  List.find_map
    (fun (((n, node), v) : (string * string) * Registry.value) ->
      match v with
      | Registry.Histogram { sum; observations; _ } when n = name && node = "" ->
        Some (sum, observations)
      | Registry.Histogram _ | Registry.Counter _ | Registry.Gauge _ -> None)
    snap
  |> Option.value ~default:(0., 0)

let counter snap name =
  List.find_map
    (fun (((n, node), v) : (string * string) * Registry.value) ->
      match v with
      | Registry.Counter c when n = name && node = "" -> Some c
      | Registry.Counter _ | Registry.Histogram _ | Registry.Gauge _ -> None)
    snap
  |> Option.value ~default:0

let run ~dir =
  let t0 = Unix.gettimeofday () in
  match Node_store.load ~dir with
  | Error e ->
    prerr_endline ("daemon: " ^ e);
    1
  | Ok store -> begin
    Node_store.buffer_telemetry store true;
    let config = { Event_loop.default_config with Event_loop.mode = Reconcile.Digest } in
    let loop = Event_loop.create ~store ~config () in
    match Event_loop.listen_peers loop ~port:0 () with
    | Error e ->
      prerr_endline ("daemon: " ^ e);
      1
    | Ok port ->
      Vegvisir_cli.Unix_compat.install_stop_handler (fun () ->
          Event_loop.request_stop loop);
      Printf.printf "ready %d %.6f\n%!" port (Unix.gettimeofday () -. t0);
      let cpu0 = self_cpu_s () and wall0 = Unix.gettimeofday () in
      let gc0 = Gc.quick_stat () in
      let result = Event_loop.run loop in
      Node_store.buffer_telemetry store false;
      let cpu = self_cpu_s () -. cpu0 and wall = Unix.gettimeofday () -. wall0 in
      let gc1 = Gc.quick_stat () in
      let snap = Registry.snapshot (Vegvisir_obs.Context.registry (Event_loop.context loop)) in
      let fields = ref [] in
      let add k v = fields := Printf.sprintf "%s=%.9g" k v :: !fields in
      List.iter
        (fun ph ->
          let sum, n = histogram snap ("loop." ^ ph ^ "_ms") in
          add ("loop." ^ ph ^ "_ms_sum") sum;
          add ("loop." ^ ph ^ "_n") (float_of_int n))
        phases;
      add "loop.slow_iterations" (float_of_int (counter snap "loop.slow_iterations"));
      let st = Event_loop.stats loop in
      add "sessions_completed" (float_of_int st.Event_loop.completed);
      add "sessions_failed" (float_of_int st.Event_loop.failed);
      add "delivered" (float_of_int st.Event_loop.delivered);
      let sum f =
        List.fold_left
          (fun acc (_, (o : Event_loop.outcome)) ->
            match o.Event_loop.pulled with Some s -> acc + f s | None -> acc)
          0 (Event_loop.outcomes loop)
      in
      add "pull_bytes"
        (float_of_int
           (sum (fun s -> s.Reconcile.bytes_sent + s.Reconcile.bytes_received)));
      add "pull_blocks" (float_of_int (sum (fun s -> s.Reconcile.blocks_received)));
      add "pull_redundant" (float_of_int (sum (fun s -> s.Reconcile.redundant_blocks)));
      add "pull_rounds" (float_of_int (sum (fun s -> s.Reconcile.rounds)));
      add "pull_sessions"
        (float_of_int
           (List.length
              (List.filter
                 (fun (_, (o : Event_loop.outcome)) -> Option.is_some o.Event_loop.pulled)
                 (Event_loop.outcomes loop))));
      add "cpu_s" cpu;
      add "wall_s" wall;
      add "gc_major" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      add "gc_heap_words" (float_of_int gc1.Gc.heap_words);
      add "vmhwm_mb" (Proc.vmhwm_mb ());
      add "blocks" (float_of_int (Dag.cardinal (Node.dag store.Node_store.node)));
      print_endline ("report " ^ String.concat " " (List.rev !fields));
      (match result with Ok () -> 0 | Error e -> prerr_endline ("daemon: " ^ e); 1)
  end

let parse_report line =
  match String.split_on_char ' ' line with
  | "report" :: kvs ->
    Some
      (List.filter_map
         (fun kv ->
           match String.index_opt kv '=' with
           | None -> None
           | Some i ->
             Option.map
               (fun v -> (String.sub kv 0 i, v))
               (float_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1))))
         kvs)
  | _ -> None

(* Parent side. *)

type handle = { pid : int; ic : in_channel }

(* Children not yet reaped; [kill_all] runs at exit so that a failing
   run never leaves a daemon behind. *)
let live : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

(* Start the child; it loads its replica while the caller does other
   set-up work. *)
let spawn ~exe ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--role"; "daemon"; "--dir"; dir |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  { pid; ic = Unix.in_channel_of_descr r }

let kill h =
  (try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap h.pid;
  close_in_noerr h.ic

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

(* Block until the child listens: its port and its own set-up time. *)
let await_ready h =
  match String.split_on_char ' ' (input_line h.ic) with
  | [ "ready"; port; ready_s ] -> (int_of_string port, float_of_string ready_s)
  | _ | (exception End_of_file) ->
    kill h;
    failwith "daemon did not become ready"

(* SIGINT: the daemon drains, saves if dirty, reports and exits. *)
let stop h =
  Unix.kill h.pid Sys.sigint;
  let report =
    let rec go () =
      match input_line h.ic with
      | line -> ( match parse_report line with Some r -> Some r | None -> go ())
      | exception End_of_file -> None
    in
    go ()
  in
  let _, status = Unix.waitpid [] h.pid in
  live := List.filter (( <> ) h.pid) !live;
  close_in_noerr h.ic;
  match (status, report) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> failwith "daemon failed to drain and report"
