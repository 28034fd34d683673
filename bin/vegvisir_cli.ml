(* vegvisir-cli: a file-backed Vegvisir node.

   Each directory is one participant: its DAG replica, key state, and
   certificates. Typical session:

     vegvisir-cli init   --dir alice --seed alice-secret --crdt log
     vegvisir-cli enroll --ca-dir alice --dir bob --seed bob-secret --role member
     vegvisir-cli append --dir bob --crdt log --value "hello from bob"
     vegvisir-cli sync   --dir alice --from bob
     vegvisir-cli show   --dir alice
     vegvisir-cli verify --dir alice
     vegvisir-cli export-dot --dir alice > chain.dot *)

open Cmdliner
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema

let ( let* ) = Result.bind

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 1

let dir_arg =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc:"Node directory.")

let seed_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Secret key seed (keep it safe).")

let init_cmd =
  let crdts =
    Arg.(
      value & opt_all string []
      & info [ "crdt" ] ~docv:"NAME"
          ~doc:"Create a grow-only string-set CRDT with this name in the genesis. Repeatable.")
  in
  let role = Arg.(value & opt string "ca" & info [ "role" ] ~doc:"Owner role.") in
  let run dir seed crdts role =
    let init_crdts =
      List.map (fun name -> (name, Schema.spec Schema.Gset Value.T_string)) crdts
    in
    let t = or_die (Vegvisir_cli.Node_store.init ~dir ~seed ~role ~init_crdts ()) in
    Printf.printf "initialized %s\n%s" dir (Vegvisir_cli.Node_store.summary t)
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create a new blockchain; this directory becomes the owner/CA.")
    Term.(const run $ dir_arg $ seed_arg $ crdts $ role)

let enroll_cmd =
  let ca_dir =
    Arg.(
      required & opt (some string) None
      & info [ "ca-dir" ] ~docv:"DIR" ~doc:"The owner/CA's node directory.")
  in
  let role = Arg.(value & opt string "member" & info [ "role" ] ~doc:"Member role.") in
  let run ca_dir dir seed role =
    let t = or_die (Vegvisir_cli.Node_store.enroll ~ca_dir ~dir ~seed ~role ()) in
    Printf.printf "enrolled %s\n%s" dir (Vegvisir_cli.Node_store.summary t)
  in
  Cmd.v
    (Cmd.info "enroll" ~doc:"Issue a certificate for a new member and seed its replica.")
    Term.(const run $ ca_dir $ dir_arg $ seed_arg $ role)

let append_cmd =
  let crdt = Arg.(value & opt string "log" & info [ "crdt" ] ~doc:"Target CRDT.") in
  let op = Arg.(value & opt string "add" & info [ "op" ] ~doc:"Operation.") in
  let value =
    Arg.(
      required & opt (some string) None
      & info [ "value" ] ~docv:"STRING" ~doc:"String argument of the operation.")
  in
  let run dir crdt op value =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    let block =
      or_die (Vegvisir_cli.Node_store.append t ~crdt ~op [ Value.String value ])
    in
    Printf.printf "appended block %s\n" (Vegvisir.Hash_id.short block.Vegvisir.Block.hash)
  in
  Cmd.v
    (Cmd.info "append" ~doc:"Append a transaction in a new block (parents = frontier).")
    Term.(const run $ dir_arg $ crdt $ op $ value)

let mode_arg =
  let module Mode = Vegvisir.Reconcile.Mode in
  Arg.(
    value
    & opt
        (enum (List.map (fun m -> (Mode.to_string m, m)) Mode.all))
        Vegvisir.Reconcile.Naive
    & info [ "mode" ] ~docv:"PROTOCOL"
        ~doc:
          "Reconciliation protocol: naive (Algorithm 1), bloom, or digest \
           (height-interval digests; near-zero redundant transfer).")

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (`Msg "expected HOST:PORT")
  | Some i -> begin
    let host = String.sub s 0 i in
    let host = if String.equal host "" then "127.0.0.1" else host in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when port > 0 && port < 65536 -> Ok (host, port)
    | Some _ | None -> Error (`Msg "expected HOST:PORT")
  end

let endpoint = Arg.conv (parse_endpoint, fun ppf (h, p) -> Fmt.pf ppf "%s:%d" h p)

let print_stats (stats : Vegvisir.Reconcile.stats) =
  Printf.printf "pulled %d block(s) in %d round(s), %d bytes on the wire\n"
    stats.Vegvisir.Reconcile.blocks_received stats.Vegvisir.Reconcile.rounds
    (stats.Vegvisir.Reconcile.bytes_sent + stats.Vegvisir.Reconcile.bytes_received)

(* [serve] and [sync --live] run one exchange on a loop of their own, as
   [daemon] runs many. [start] installs the listener or dials the peer
   and returns when to stop waiting for a session; the first finished
   session's outcome becomes the report: its pull stats and the
   requests it answered. *)
let live_exchange store mode start =
  let module Loop = Vegvisir_cli.Event_loop in
  let loop = Loop.create ~store ~config:{ Loop.default_config with Loop.mode } () in
  let outcome =
    let* give_up = start loop in
    let* () =
      Loop.run loop ~until:(fun st ->
          st.Loop.completed + st.Loop.failed + st.Loop.dial_failures > 0 || give_up st)
    in
    match Loop.outcomes loop with
    | (_, { Loop.error = Some e; _ }) :: _ -> Error e
    | (_, o) :: _ -> Ok o
    | [] -> Error "timed out waiting for a peer to connect"
  in
  Loop.shutdown loop;
  let o = or_die outcome in
  (Option.value o.Loop.pulled ~default:Vegvisir.Reconcile.empty_stats, o.Loop.served)

let sync_cmd =
  let from =
    Arg.(
      value & opt (some string) None
      & info [ "from" ] ~docv:"DIR" ~doc:"Directory of the node to pull from.")
  in
  let live =
    Arg.(
      value & opt (some endpoint) None
      & info [ "live" ] ~docv:"HOST:PORT"
          ~doc:"Reconcile over TCP with a running $(b,vegvisir-cli serve) peer \
                instead of reading another directory. Pulls the peer's missing \
                blocks, then answers while the peer pulls back.")
  in
  let connect_timeout =
    Arg.(
      value & opt float 10.
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"Abandon the TCP connect to a dead or unreachable --live peer \
                after this long instead of hanging on the OS default.")
  in
  let run dir from live mode connect_timeout =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    match (from, live) with
    | Some _, Some _ -> or_die (Error "--from and --live are mutually exclusive")
    | None, None -> or_die (Error "one of --from or --live is required")
    | Some from, None ->
      let src = or_die (Vegvisir_cli.Node_store.load ~dir:from) in
      print_stats (or_die (Vegvisir_cli.Node_store.sync t ~from:src ~mode))
    | None, Some (host, port) ->
      let pulled, served =
        live_exchange t mode (fun loop ->
            let* (_ : int) =
              Vegvisir_cli.Event_loop.connect_exchange ~label:"remote"
                ~timeout_s:connect_timeout loop ~host ~port ()
            in
            Ok (fun _ -> false))
      in
      print_stats pulled;
      Printf.printf "answered %d request(s) for the peer's pull back\n" served
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:"Pull missing blocks from another node directory, or live from a \
             serving peer (Algorithm 1).")
    Term.(const run $ dir_arg $ from $ live $ mode_arg $ connect_timeout)

(* Telemetry replay: rebuild a fresh observability context from the node
   directories' trace.jsonl files. Events are merged in timestamp order
   (ties keep the --dir order), so the same directories always render
   the same output. *)

let dirs_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Node directory; repeat to merge several nodes' telemetry.")

let load_events dirs =
  List.concat_map (fun dir -> Vegvisir_cli.Node_store.load_trace ~dir) dirs
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

let replay_events events =
  let ctx = Vegvisir_obs.Context.create () in
  List.iter (fun (ts, ev) -> Vegvisir_obs.Context.emit ctx ~ts ev) events;
  ctx

let replay_dirs dirs = replay_events (load_events dirs)

(* The replica fleet implied by a set of journals: every distinct
   primary node identity, sorted. Each CLI directory journals its own
   events under one name, so merging N directories yields N nodes. *)
let fleet_nodes events =
  List.filter_map (fun (_, ev) -> Vegvisir_obs.Event.primary_node ev) events
  |> List.sort_uniq String.compare

let replay_health ?every dirs =
  let events = load_events dirs in
  let monitor =
    Vegvisir_obs.Monitor.create ?every ~nodes:(fleet_nodes events) ()
  in
  let ctx = Vegvisir_obs.Context.create () in
  Vegvisir_obs.Context.attach ctx (Vegvisir_obs.Monitor.sink monitor);
  List.iter (fun (ts, ev) -> Vegvisir_obs.Context.emit ctx ~ts ev) events;
  (ctx, monitor)

(* The Prometheus scrape body: the replayed registry plus the health
   gauges, rendered fresh per call so every scrape sees current files. *)
let render_prometheus ?every dirs () =
  let ctx, monitor = replay_health ?every dirs in
  let reg = Vegvisir_obs.Context.registry ctx in
  Vegvisir_obs.Health.export monitor reg;
  Vegvisir_obs.Registry.to_prometheus (Vegvisir_obs.Registry.snapshot reg)

let serve_cmd =
  let port =
    Arg.(
      value & opt int 7845
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (loopback).")
  in
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "accept-timeout" ] ~docv:"SECONDS"
          ~doc:"Give up if no peer connects within this long (default: wait forever).")
  in
  let metrics =
    Arg.(
      value & opt (some int) None
      & info [ "metrics" ] ~docv:"PORT"
          ~doc:"After the sync exchange, serve Prometheus text metrics \
                ($(b,GET /metrics)) on this loopback port, rendered from \
                the directory's telemetry journal.")
  in
  let run dir port timeout mode metrics =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    let pulled, served =
      live_exchange t mode (fun loop ->
          let* bound = Vegvisir_cli.Event_loop.listen_peers loop ~port () in
          Printf.printf "serving %s on 127.0.0.1:%d\n%!" dir bound;
          let mono_ms = Vegvisir_cli.Unix_compat.mono_ms in
          let deadline =
            Option.map (fun s -> mono_ms () +. (s *. 1000.)) timeout
          in
          Ok
            (fun st ->
              st.Vegvisir_cli.Event_loop.accepted = 0
              && match deadline with Some d -> mono_ms () >= d | None -> false))
    in
    Printf.printf "answered %d request(s)\n" served;
    print_stats pulled;
    match metrics with
    | None -> ()
    | Some mport ->
      (* A loop over the same store with only the /metrics listener: it
         answers every scrape until SIGINT/SIGTERM. *)
      let loop = Vegvisir_cli.Event_loop.create ~store:t () in
      let bound =
        or_die (Vegvisir_cli.Event_loop.listen_metrics loop ~port:mport ())
      in
      Vegvisir_cli.Event_loop.set_render loop (render_prometheus [ dir ]);
      Vegvisir_cli.Unix_compat.install_stop_handler (fun () ->
          Vegvisir_cli.Event_loop.request_stop loop);
      Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!" bound;
      let r = Vegvisir_cli.Event_loop.run loop in
      let answered =
        (Vegvisir_cli.Event_loop.stats loop).Vegvisir_cli.Event_loop.scrapes
      in
      Vegvisir_cli.Event_loop.shutdown loop;
      or_die r;
      Printf.printf "answered %d scrape(s)\n" answered
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Answer one live peer's pull over TCP, then pull back from it \
             (see $(b,sync --live)). With $(b,--metrics), follow up with a \
             Prometheus scrape endpoint (unbounded; SIGINT to stop). For a \
             long-lived multi-peer node, see $(b,daemon).")
    Term.(const run $ dir_arg $ port $ timeout $ mode_arg $ metrics)

let daemon_cmd =
  let listen =
    Arg.(
      value & opt int 7845
      & info [ "listen" ] ~docv:"PORT"
          ~doc:"TCP port for peer exchanges (loopback).")
  in
  let metrics =
    Arg.(
      value & opt (some int) None
      & info [ "metrics" ] ~docv:"PORT"
          ~doc:"Serve Prometheus text metrics ($(b,GET /metrics)) on this \
                loopback port, live from the running daemon's registry: \
                session counters, block deliveries, active-session gauge.")
  in
  let anti_entropy_ms =
    Arg.(
      value & opt (some int) None
      & info [ "anti-entropy-ms" ] ~docv:"MS"
          ~doc:"Every MS milliseconds, dial the configured $(b,--peer) the \
                live scoreboard ranks most in need — most diverged, then \
                longest unseen — and run a full exchange; unreachable peers \
                back off exponentially (requires at least one $(b,--peer)).")
  in
  let peers =
    Arg.(
      value & opt_all endpoint []
      & info [ "peer" ] ~docv:"HOST:PORT"
          ~doc:"Anti-entropy partner; repeatable.")
  in
  let trace_sample =
    Arg.(
      value & opt float 0.
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:"Cross-daemon span tracing: announce this fraction of \
                initiated exchange sessions to the responder so both sides' \
                spans stitch into one trace (0 = off, 1 = every session). \
                The sampling decision is a deterministic hash, never a \
                random draw. Spans are journaled, shown on \
                $(b,GET /debug/spans), and exportable with \
                $(b,trace --chrome).")
  in
  let run dir listen metrics mode anti_entropy_ms peers trace_sample =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    (* One journal write per flush, not per event: the daemon multiplexes
       many sessions and saves (= flushes) on every completed exchange. *)
    Vegvisir_cli.Node_store.buffer_telemetry t true;
    let config =
      {
        Vegvisir_cli.Event_loop.default_config with
        Vegvisir_cli.Event_loop.mode;
        trace_sample;
      }
    in
    let loop = Vegvisir_cli.Event_loop.create ~store:t ~config () in
    let pport = or_die (Vegvisir_cli.Event_loop.listen_peers loop ~port:listen ()) in
    let mport =
      match metrics with
      | None -> None
      | Some p -> Some (or_die (Vegvisir_cli.Event_loop.listen_metrics loop ~port:p ()))
    in
    (match (anti_entropy_ms, peers) with
    | Some ms, (_ :: _ as peers) ->
      Vegvisir_cli.Event_loop.set_anti_entropy loop ~every_ms:(float_of_int ms)
        ~peers
    | Some _, [] -> or_die (Error "--anti-entropy-ms requires at least one --peer")
    | None, _ -> ());
    Vegvisir_cli.Unix_compat.install_stop_handler (fun () ->
        Vegvisir_cli.Event_loop.request_stop loop);
    Vegvisir_cli.Unix_compat.install_quit_handler (fun () ->
        Vegvisir_cli.Event_loop.request_flight_dump loop);
    Printf.printf "daemon: %s on 127.0.0.1:%d%s\n%!" dir pport
      (match mport with
      | Some m ->
        Printf.sprintf ", metrics on http://127.0.0.1:%d/metrics, health on /health" m
      | None -> "");
    let result = Vegvisir_cli.Event_loop.run loop in
    Vegvisir_cli.Node_store.buffer_telemetry t false;
    or_die result;
    let st = Vegvisir_cli.Event_loop.stats loop in
    Printf.printf
      "daemon: drained; %d session(s) completed, %d failed, %d dial \
       failure(s), %d block(s) delivered, %d scrape(s) answered\n"
      st.Vegvisir_cli.Event_loop.completed st.Vegvisir_cli.Event_loop.failed
      st.Vegvisir_cli.Event_loop.dial_failures
      st.Vegvisir_cli.Event_loop.delivered st.Vegvisir_cli.Event_loop.scrapes
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Run a long-lived node: accept any number of concurrent peer \
             exchanges on $(b,--listen), serve $(b,/metrics) scrapes, and \
             optionally dial peers for periodic anti-entropy — all in one \
             poll-based event loop. SIGINT/SIGTERM drains open sessions, \
             saves the replica, and flushes the telemetry journal before \
             exiting; SIGQUIT dumps the in-memory flight recorder to \
             $(i,DIR)/flight.jsonl without stopping.")
    Term.(
      const run $ dir_arg $ listen $ metrics $ mode_arg $ anti_entropy_ms
      $ peers $ trace_sample)

let show_cmd =
  let run dir =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    print_string (Vegvisir_cli.Node_store.summary t)
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the node's status and CRDT contents.")
    Term.(const run $ dir_arg)

let verify_cmd =
  let run dir =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    let n = or_die (Vegvisir_cli.Node_store.verify t) in
    Printf.printf "ok: %d block(s) revalidated from the genesis\n" n
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Revalidate every block against the SIV-E checks.")
    Term.(const run $ dir_arg)

let rotate_cmd =
  let ca_dir =
    Arg.(
      required & opt (some string) None
      & info [ "ca-dir" ] ~docv:"DIR" ~doc:"The owner/CA's node directory.")
  in
  let run ca_dir dir seed =
    let t = or_die (Vegvisir_cli.Node_store.rotate ~ca_dir ~dir ~seed ()) in
    Printf.printf "rotated key for %s; signatures remaining: %s
" dir
      (match Vegvisir_cli.Node_store.remaining_signatures t with
      | Some n -> string_of_int n
      | None -> "unbounded")
  in
  Cmd.v
    (Cmd.info "rotate"
       ~doc:"Switch to a fresh key before the hash-based key is exhausted.")
    Term.(const run $ ca_dir $ dir_arg $ seed_arg)

let simulate_cmd =
  let file =
    Arg.(
      required & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Scenario script (see examples/scenarios/).")
  in
  let run file =
    let text = In_channel.with_open_bin file In_channel.input_all in
    match Vegvisir_net.Script.parse text with
    | Error msg ->
      prerr_endline ("parse error: " ^ msg);
      exit 1
    | Ok scenario -> begin
      match Vegvisir_net.Script.run scenario with
      | Ok report -> print_string report
      | Error msg ->
        prerr_endline msg;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a declarative simulation scenario file.")
    Term.(const run $ file)

let export_dot_cmd =
  let run dir =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    print_string (Vegvisir_cli.Node_store.export_dot t)
  in
  Cmd.v (Cmd.info "export-dot" ~doc:"Print the DAG in Graphviz format.")
    Term.(const run $ dir_arg)

(* [stats] and [health] replay journals from --dir, or with --connect
   print what a running daemon's metrics listener answers. *)
let replay_dirs_arg =
  Arg.(
    value & opt_all string []
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Node directory to replay; repeat to merge several nodes' \
              telemetry. Required unless $(b,--connect) is given.")

let connect_arg ~doc =
  Arg.(value & opt (some endpoint) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

(* An HTTP body, ending in exactly the newline it has or one added. *)
let print_body body =
  print_string body;
  if String.length body = 0 || not (Char.equal body.[String.length body - 1] '\n')
  then print_newline ()

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Render the registry as JSON.")
  in
  let connect =
    connect_arg
      ~doc:"Fetch a running daemon's live merged registry instead of \
            replaying journals ($(b,GET /debug/registry), always JSON) \
            and print the body."
  in
  let run dirs json connect =
    match connect with
    | Some (host, port) ->
      print_body
        (or_die
           (Vegvisir_cli.Http_probe.get ~host ~port ~path:"/debug/registry" ()))
    | None -> begin
      match dirs with
      | [] -> or_die (Error "at least one --dir (or --connect) is required")
      | _ :: _ ->
        let ctx = replay_dirs dirs in
        let snap =
          Vegvisir_obs.Registry.snapshot (Vegvisir_obs.Context.registry ctx)
        in
        if snap = [] then print_endline "(no telemetry recorded)"
        else
          print_string
            (if json then Vegvisir_obs.Registry.render_json snap
             else Vegvisir_obs.Registry.render_text snap)
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dump the metric registry rebuilt from the directories' \
             trace.jsonl telemetry (counters per node: blocks, sessions, \
             syncs, stores). With $(b,--connect), fetch a running daemon's \
             live registry over its metrics listener instead.")
    Term.(const run $ replay_dirs_arg $ json $ connect)

let trace_cmd =
  let block =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BLOCK"
          ~doc:"Block id (hex, prefix accepted). Required unless \
                $(b,--chrome) is given; with $(b,--chrome) it restricts \
                the export to that block's trace.")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Export the directories' spans as Chrome trace-event JSON \
                to $(i,FILE) ($(b,-) = stdout), loadable in Perfetto or \
                chrome://tracing: one process row per node, one thread \
                per trace.")
  in
  let module Event = Vegvisir_obs.Event in
  let module Hash_id = Vegvisir.Hash_id in
  (* One block's timeline is its [Block] events in merged journal order:
     a line per event, then the latencies since its first [Created]. *)
  let print_timeline events id =
    let entries =
      List.filter_map
        (fun (ts, (ev : Event.t)) ->
          match ev with
          | Block { node; phase; block; peer } when Hash_id.equal block id ->
            Some (ts, node, phase, peer)
          | _ -> None)
        events
    in
    Printf.printf "block %s\n" (Hash_id.to_hex id);
    List.iter
      (fun (ts, node, (phase : Event.block_phase), peer) ->
        let peer =
          match (phase, peer) with
          | Received, Some p -> " from " ^ p
          | Sent, Some p -> " to " ^ p
          | Witnessed, Some p -> " by " ^ p
          | _ -> ""
        in
        Printf.printf "  %10s  %-9s node=%s%s\n" (Event.json_float ts)
          (Event.phase_to_string phase) node peer)
      entries;
    let at phase =
      List.filter_map
        (fun (ts, _, p, _) ->
          if Event.block_phase_equal p phase then Some ts else None)
        entries
    in
    match at Created with
    | [] -> ()
    | t0 :: _ ->
      (match List.map (fun t -> t -. t0) (at Delivered) with
      | [] -> ()
      | d :: ds ->
        let d = List.fold_left (fun m d -> if d > m then d else m) d ds in
        Printf.printf "  propagation latency: %s\n" (Event.json_float d));
      (match at Witnessed with
      | [] -> ()
      | t :: _ ->
        Printf.printf "  first-witness latency: %s\n"
          (Event.json_float (t -. t0)))
  in
  let run block chrome dirs =
    let events = load_events dirs in
    let blocks =
      List.fold_left
        (fun acc (_, (ev : Event.t)) ->
          match ev with
          | Block { block; _ } -> Hash_id.Set.add block acc
          | _ -> acc)
        Hash_id.Set.empty events
    in
    let resolve prefix =
      match
        List.filter
          (fun id -> String.starts_with ~prefix (Hash_id.to_hex id))
          (Hash_id.Set.elements blocks)
      with
      | [] -> or_die (Error ("no trace entries for block " ^ prefix))
      | [ id ] -> id
      | ids ->
        Printf.printf "prefix %s is ambiguous:\n" prefix;
        List.iter
          (fun id -> Printf.printf "  %s\n" (Vegvisir.Hash_id.to_hex id))
          ids;
        exit 1
    in
    match chrome with
    | Some file ->
      let spans = Vegvisir_obs.Span.of_events events in
      let spans =
        match block with
        | None -> spans
        | Some prefix ->
          let tr = Vegvisir_obs.Span.trace_of_block (resolve prefix) in
          List.filter
            (fun (s : Vegvisir_obs.Span.t) -> String.equal s.trace tr)
            spans
      in
      let body = Vegvisir_obs.Span.chrome_trace spans in
      if String.equal file "-" then print_string body
      else begin
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc body);
        Printf.printf "wrote %d span(s) to %s\n" (List.length spans) file
      end
    | None -> begin
      match block with
      | None -> or_die (Error "BLOCK is required unless --chrome is given")
      | Some prefix -> print_timeline events (resolve prefix)
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a block's causal timeline (created/sent/received/\
             delivered, with node ids and times) merged from the \
             directories' trace.jsonl telemetry — or, with $(b,--chrome), \
             export the spans folded from the same journals as Chrome \
             trace-event JSON.")
    Term.(const run $ block $ chrome $ dirs_arg)

let health_cmd =
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Render the Prometheus text exposition instead of the \
                human-readable report.")
  in
  let every =
    Arg.(
      value & opt (some float) None
      & info [ "every" ] ~docv:"MS"
          ~doc:"Frontier-divergence sampling tick in trace milliseconds \
                (default 1000).")
  in
  let connect =
    connect_arg
      ~doc:"Poll a running daemon's metrics listener instead of replaying \
            journals: fetch $(b,GET /health) — live scoreboard, streaming \
            health fold, loop self-profile — or $(b,GET /metrics) with \
            $(b,--prometheus), and print the body."
  in
  let poll_ms =
    Arg.(
      value & opt int 1000
      & info [ "poll-ms" ] ~docv:"MS"
          ~doc:"Interval between polls in $(b,--connect) mode.")
  in
  let polls =
    Arg.(
      value & opt int 1
      & info [ "polls" ] ~docv:"N"
          ~doc:"How many times to poll in $(b,--connect) mode (0 = forever).")
  in
  let run dirs prometheus every connect poll_ms polls =
    match connect with
    | Some (host, port) ->
      let path = if prometheus then "/metrics" else "/health" in
      let rec go i =
        print_body (or_die (Vegvisir_cli.Http_probe.get ~host ~port ~path ()));
        flush stdout;
        if polls = 0 || i < polls then begin
          Unix.sleepf (float_of_int poll_ms /. 1000.);
          go (i + 1)
        end
      in
      go 1
    | None -> begin
      match dirs with
      | [] -> or_die (Error "at least one --dir (or --connect) is required")
      | _ :: _ ->
        if prometheus then print_string (render_prometheus ?every dirs ())
        else begin
          let _ctx, monitor = replay_health ?every dirs in
          print_string (Vegvisir_obs.Health.report monitor)
        end
    end
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Replay the directories' trace.jsonl telemetry through the \
             health monitor and print the derived metrics: frontier \
             divergence, convergence lag, gossip efficiency, witness \
             quorum latency. With $(b,--connect), poll a running daemon's \
             $(b,/health) endpoint instead — per-peer scoreboard, streaming \
             health fold, and event-loop self-profile, live.")
    Term.(const run $ replay_dirs_arg $ prometheus $ every $ connect $ poll_ms $ polls)

let recover_cmd =
  let from =
    Arg.(
      required & opt (some string) None
      & info [ "from" ] ~docv:"DIR" ~doc:"Directory of the node to recover from.")
  in
  let blocks =
    let hash =
      Arg.conv
        ( (fun s ->
            match Vegvisir.Hash_id.of_hex s with
            | Some h -> Ok h
            | None -> Error (`Msg "expected a full block hash in hex")),
          fun ppf h -> Fmt.string ppf (Vegvisir.Hash_id.to_hex h) )
    in
    Arg.(
      value & opt_all hash []
      & info [ "block" ] ~docv:"HASH"
          ~doc:"Recover the ancestry closure below this block (full hex \
                hash; repeatable). Default: the source's whole frontier.")
  in
  let run dir from blocks =
    let t = or_die (Vegvisir_cli.Node_store.load ~dir) in
    let src = or_die (Vegvisir_cli.Node_store.load ~dir:from) in
    let below = match blocks with [] -> None | hs -> Some hs in
    let served, restored =
      or_die (Vegvisir_cli.Node_store.recover t ~from:src ?below ())
    in
    Printf.printf "recovered %d block(s) from a %d-block closure\n" restored
      served
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Batch ancestry recovery (§IV-I): re-admit every locally \
             missing block in the ancestry closure of the given blocks \
             (default: the source's frontier), served from another node \
             directory's replica.")
    Term.(const run $ dir_arg $ from $ blocks)

let () =
  let info =
    Cmd.info "vegvisir-cli" ~doc:"File-backed Vegvisir blockchain nodes"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ init_cmd; enroll_cmd; append_cmd; sync_cmd; serve_cmd; daemon_cmd;
            show_cmd;
            verify_cmd; export_dot_cmd; simulate_cmd; rotate_cmd; stats_cmd;
            trace_cmd; health_cmd; recover_cmd ]))
