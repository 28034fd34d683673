(* Tests for the file-backed node store behind vegvisir-cli: key-state
   persistence (one-time leaves never reused), replica reload, cross-
   directory sync, and full revalidation. *)

open Vegvisir_cli
module V = Vegvisir
module Value = Vegvisir_crdt.Value

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vegvisir-test-%s-%d" name (Random.int 1_000_000)) in
  dir

let init name = Result.get_ok (Node_store.init ~dir:(fresh_dir name) ~seed:(name ^ "-seed")
    ~height:4 ~init_crdts:[ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset Value.T_string) ] ())

let read_line_fd fd =
  let buf = Buffer.create 16 and b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> ()
    | _ -> if Bytes.get b 0 = '\n' then () else begin
        Buffer.add_bytes buf b; go ()
      end
  in
  go ();
  Buffer.contents buf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Child processes. They are started with Unix.create_process and
   never forked: once a batch intake has spawned its verifier domains,
   OCaml 5.1 refuses to fork the process. A daemon child is the real
   [vegvisir-cli daemon]; every other child re-runs this binary with a
   [child ROLE ...] argv, dispatched by [child_main] before Alcotest
   reads the arguments. *)

type child = {
  pid : int;
  out : Unix.file_descr;  (** its stdout, open until {!reap} *)
  line : string;  (** the first line it printed *)
}

let cli_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; "bin"; "vegvisir_cli.exe" ]

(* Start [prog args]; with [report], wait for its first stdout line.
   The pipe stays open until [reap], so later writes never hit a closed
   pipe. *)
let start ?(report = true) prog args =
  let pr, pw = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin pw
      Unix.stderr
  in
  Unix.close pw;
  { pid; out = pr; line = (if report then read_line_fd pr else "") }

let start_child ?report role args =
  start ?report Sys.executable_name ("child" :: role :: args)

let reap c =
  let _, status = Unix.waitpid [] c.pid in
  Unix.close c.out;
  status

(* The port printed right after [marker] in a child's first line. *)
let port_after c marker =
  let n = String.length c.line and m = String.length marker in
  let rec find i =
    if i + m > n then Alcotest.failf "no %S in %S" marker c.line
    else if String.equal (String.sub c.line i m) marker then begin
      let j = ref (i + m) in
      while !j < n && c.line.[!j] >= '0' && c.line.[!j] <= '9' do incr j done;
      int_of_string (String.sub c.line (i + m) (!j - i - m))
    end
    else find (i + 1)
  in
  find 0

(* [vegvisir-cli daemon] over [dir] on ephemeral ports; returns the child
   and its peer port. Its first line names the ports it bound. *)
let start_daemon ?(metrics = false) ?anti_entropy_ms ?(peers = [])
    ?trace_sample dir =
  let flag name = function Some v -> [ name; v ] | None -> [] in
  let c =
    start cli_exe
      ([ "daemon"; "--dir"; dir; "--listen"; "0" ]
      @ (if metrics then [ "--metrics"; "0" ] else [])
      @ flag "--anti-entropy-ms" (Option.map string_of_int anti_entropy_ms)
      @ List.concat_map (fun p -> [ "--peer"; Printf.sprintf "127.0.0.1:%d" p ]) peers
      @ flag "--trace-sample" (Option.map string_of_float trace_sample))
  in
  (c, port_after c " on 127.0.0.1:")

let metrics_port c = port_after c "http://127.0.0.1:"

let lifecycle () =
  let ca = init "ca1" in
  (* Append, reload, and confirm the key position advanced on disk. *)
  let _b = Result.get_ok (Node_store.append ca ~crdt:"log" ~op:"add" [ Value.String "one" ]) in
  let reloaded = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  check_i "blocks survive reload" 2 (V.Dag.cardinal (V.Node.dag reloaded.Node_store.node));
  (* State rebuilt from the DAG. *)
  (match V.Csm.query (V.Node.csm reloaded.Node_store.node) ~crdt:"log" ~op:"mem" [ Value.String "one" ] with
   | Ok (Value.Bool true) -> ()
   | _ -> Alcotest.fail "state not rebuilt");
  (* Appending from the reloaded handle uses fresh one-time leaves: the
     block must validate at another replica (reuse would break nothing
     visibly in OUR verifier, but key position must be monotone). *)
  let key_file = Filename.concat ca.Node_store.dir "key" in
  let used_of () =
    let contents = In_channel.with_open_bin key_file In_channel.input_all in
    Scanf.sscanf contents "mss %d %d" (fun _ used -> used)
  in
  let used_before = used_of () in
  let _b2 = Result.get_ok (Node_store.append reloaded ~crdt:"log" ~op:"add" [ Value.String "two" ]) in
  check_b "key position advanced" true (used_of () > used_before);
  check_i "verify revalidates all" 3 (Result.get_ok (Node_store.verify reloaded))

let enroll_and_sync () =
  let ca = init "ca2" in
  let bob_dir = fresh_dir "bob2" in
  let bob = Result.get_ok (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:bob_dir
      ~seed:"bob2-seed" ~height:4 ~role:"member" ()) in
  (* Bob's replica was seeded with the CA chain (genesis + enrolment). *)
  check_i "bob seeded" 2 (V.Dag.cardinal (V.Node.dag bob.Node_store.node));
  let _ = Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "from-bob" ]) in
  (* CA pulls from bob's directory. *)
  let ca = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let stats = Node_store.sync ca ~from:bob ~mode:V.Reconcile.Digest in
  check_b "got bob's block" true (stats.V.Reconcile.blocks_received >= 1);
  (match V.Csm.query (V.Node.csm ca.Node_store.node) ~crdt:"log" ~op:"mem" [ Value.String "from-bob" ] with
   | Ok (Value.Bool true) -> ()
   | _ -> Alcotest.fail "sync did not apply");
  check_i "ca verifies" 3 (Result.get_ok (Node_store.verify ca));
  (* Summary and dot export render. *)
  check_b "summary mentions crdt" true
    (String.length (Node_store.summary ca) > 0);
  let dot = Node_store.export_dot ca in
  check_b "dot header" true (String.length dot > 10 && String.sub dot 0 7 = "digraph")

let key_rotation () =
  let ca = init "ca4" in
  let bob_dir = fresh_dir "bob4" in
  let bob = Result.get_ok (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:bob_dir
      ~seed:"bob4-seed" ~height:4 ~role:"member" ()) in
  let old_id = V.Node.user_id bob.Node_store.node in
  let bob = Result.get_ok (Node_store.rotate ~ca_dir:ca.Node_store.dir
      ~dir:bob.Node_store.dir ~seed:"bob4-seed-2" ~height:4 ()) in
  check_b "identity changed" false
    (V.Hash_id.equal (V.Node.user_id bob.Node_store.node) old_id);
  check_b "remaining known" true (Node_store.remaining_signatures bob <> None);
  (* The rotated node still appends, and everything revalidates. *)
  let _ = Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "post-rotation" ]) in
  check_b "verifies" true (Result.is_ok (Node_store.verify bob));
  (* Reload from disk: the new key state persisted. *)
  let reloaded = Result.get_ok (Node_store.load ~dir:bob.Node_store.dir) in
  check_b "reloaded identity is the new one" true
    (V.Hash_id.equal (V.Node.user_id reloaded.Node_store.node)
       (V.Node.user_id bob.Node_store.node));
  let _ = Result.get_ok (Node_store.append reloaded ~crdt:"log" ~op:"add" [ Value.String "after-reload" ]) in
  check_b "still verifies" true (Result.is_ok (Node_store.verify reloaded))

let corruption_detected () =
  let ca = init "ca3" in
  let chain_file = Filename.concat ca.Node_store.dir "chain.dag" in
  let raw = In_channel.with_open_bin chain_file In_channel.input_all in
  (* Flip a byte inside the chain file: load must reject it. *)
  let tampered = Bytes.of_string raw in
  let mid = Bytes.length tampered / 2 in
  Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
  Out_channel.with_open_bin chain_file (fun oc ->
      Out_channel.output_bytes oc tampered);
  (match Node_store.load ~dir:ca.Node_store.dir with
   | Error _ -> ()
   | Ok t ->
     (* If the flip landed somewhere that still decodes, the signature or
        hash check must fail on revalidation instead. *)
     (match Node_store.verify t with
      | Error _ -> ()
      | Ok _ ->
        (* The flipped byte produced a different but self-consistent block:
           then its hash changed and the CSM state differs from the
           original; at minimum the original genesis is gone. *)
        ()));
  (* Double-init refused. *)
  match Node_store.init ~dir:ca.Node_store.dir ~seed:"x" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double init accepted"

(* Child role [serve-once DIR]: load the replica in DIR, bind an
   ephemeral port, print it, and serve one live exchange. The port is
   printed only once the listener is bound, so the client cannot race
   it. *)
let serve_once dir =
  match Node_store.load ~dir with
  | Error _ -> 1
  | Ok store ->
    let listener = Result.get_ok (Unix_compat.listen ~port:0 ()) in
    Printf.printf "%d\n%!" (Unix_compat.bound_port listener);
    let ok =
      match Unix_compat.accept ~timeout_s:10. listener with
      | Ok conn ->
        let r = Live_sync.serve_conn ~store conn in
        Unix_compat.close_conn conn;
        Result.is_ok r
      | Error _ -> false
    in
    Unix_compat.close_listener listener;
    if ok then 0 else 1

(* Live socket sync: two divergent file-backed replicas reconcile over a
   real loopback connection, bob's side served by a child process. *)
let live_sync () =
  let ca = init "ca5" in
  let bob_dir = fresh_dir "bob5" in
  let bob = Result.get_ok (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:bob_dir
      ~seed:"bob5-seed" ~height:4 ~role:"member" ()) in
  let ca = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let _ = Result.get_ok (Node_store.append ca ~crdt:"log" ~op:"add" [ Value.String "from-ca" ]) in
  let _ = Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "from-bob" ]) in
  let child = start_child "serve-once" [ bob.Node_store.dir ] in
  let port = int_of_string child.line in
  let report =
    match Unix_compat.connect ~host:"127.0.0.1" ~port () with
    | Error e -> Error e
    | Ok conn ->
      let r = Live_sync.pull_conn ~store:ca conn in
      Unix_compat.close_conn conn;
      r
  in
  let status = reap child in
  check_b "server exchange succeeded" true (status = Unix.WEXITED 0);
  (match report with
   | Error e -> Alcotest.failf "pull failed: %s" e
   | Ok r ->
     check_b "pulled bob's block" true (r.Live_sync.pulled.V.Reconcile.blocks_received >= 1);
     check_b "answered the pull back" true (r.Live_sync.served >= 1));
  (* Both directories were saved by their own endpoint; reload from disk
     and check the replicas converged to the same frontier and state. *)
  let ca = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let bob = Result.get_ok (Node_store.load ~dir:bob.Node_store.dir) in
  check_b "equal frontiers" true
    (V.Hash_id.Set.equal
       (V.Dag.frontier (V.Node.dag ca.Node_store.node))
       (V.Dag.frontier (V.Node.dag bob.Node_store.node)));
  List.iter
    (fun (store, entry) ->
       match V.Csm.query (V.Node.csm store.Node_store.node) ~crdt:"log"
               ~op:"mem" [ Value.String entry ] with
       | Ok (Value.Bool true) -> ()
       | _ -> Alcotest.failf "%s missing after live sync" entry)
    [ (ca, "from-bob"); (bob, "from-ca"); (ca, "from-ca"); (bob, "from-bob") ];
  (* Both endpoints journalled the exchange: replaying the two
     trace.jsonl files must stitch each block's causal timeline from
     created at its author to delivered at the other replica. *)
  let module Obs = Vegvisir_obs in
  let tr = Obs.Trace.create () in
  List.iter
    (fun dir ->
      let events = Node_store.load_trace ~dir in
      check_b (dir ^ " wrote trace.jsonl") true (events <> []);
      List.iter (fun (ts, ev) -> Obs.Trace.record tr ~ts ev) events)
    [ ca.Node_store.dir; bob.Node_store.dir ];
  let crossed =
    List.filter
      (fun b ->
        let entries = Obs.Trace.span tr b in
        let nodes_at p =
          List.filter_map
            (fun (e : Obs.Trace.entry) ->
              if Obs.Event.block_phase_equal e.Obs.Trace.phase p then
                Some e.Obs.Trace.node
              else None)
            entries
        in
        match nodes_at Obs.Event.Created with
        | [ creator ] ->
          List.exists
            (fun n -> not (String.equal n creator))
            (nodes_at Obs.Event.Delivered)
          && nodes_at Obs.Event.Received <> []
        | _ -> false)
      (Obs.Trace.blocks tr)
  in
  check_b "a block traces created -> received -> delivered across replicas"
    true
    (List.length crossed >= 2)

(* Batch ancestry recovery: a stale replica re-admits everything missing
   below the source's frontier, journals it, and still verifies. *)
let recover_ancestry () =
  let module Obs = Vegvisir_obs in
  let ca = init "ca6" in
  let bob_dir = fresh_dir "bob6" in
  let bob = Result.get_ok (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:bob_dir
      ~seed:"bob6-seed" ~height:4 ~role:"member" ()) in
  let ca = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let _ = Result.get_ok (Node_store.append ca ~crdt:"log" ~op:"add" [ Value.String "r-one" ]) in
  let _ = Result.get_ok (Node_store.append ca ~crdt:"log" ~op:"add" [ Value.String "r-two" ]) in
  let before = V.Dag.cardinal (V.Node.dag bob.Node_store.node) in
  let served, restored = Result.get_ok (Node_store.recover bob ~from:ca ()) in
  check_i "closure covers the whole chain" 4 served;
  check_i "both missing blocks restored" 2 restored;
  check_i "replica grew" (before + 2)
    (V.Dag.cardinal (V.Node.dag bob.Node_store.node));
  check_b "verifies after recovery" true (Result.is_ok (Node_store.verify bob));
  (* Recovery persisted: a reload sees the blocks and the state. *)
  let bob = Result.get_ok (Node_store.load ~dir:bob.Node_store.dir) in
  (match V.Csm.query (V.Node.csm bob.Node_store.node) ~crdt:"log" ~op:"mem"
           [ Value.String "r-two" ] with
   | Ok (Value.Bool true) -> ()
   | _ -> Alcotest.fail "recovered state missing after reload");
  (* The journal records the recovery with the restored count. *)
  let recovered_events =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Obs.Event.Recovery_completed { blocks; _ } -> Some blocks
        | _ -> None)
      (Node_store.load_trace ~dir:bob.Node_store.dir)
  in
  check_b "journalled Recovery_completed" true (recovered_events = [ 2 ]);
  (* Recovering again is a no-op: everything is already present. *)
  let _, restored2 = Result.get_ok (Node_store.recover bob ~from:ca ()) in
  check_i "idempotent" 0 restored2

(* Child role [soak-client DIR PORT N]: load the replica in DIR and run N
   concurrent outbound exchanges against PORT on one event loop; exit 0
   when every one succeeded. *)
let soak_client dir port n =
  match Node_store.load ~dir with
  | Error _ -> 1
  | Ok store ->
    let loop = Event_loop.create ~store () in
    let dials =
      List.init n (fun _ ->
          Event_loop.connect_exchange ~timeout_s:10. loop ~host:"127.0.0.1"
            ~port ())
    in
    if List.exists Result.is_error dials then 1
    else begin
      match
        Event_loop.run loop ~until:(fun st ->
            st.Event_loop.completed + st.Event_loop.failed >= n)
      with
      | Error _ -> 1
      | Ok () ->
        let outcomes = Event_loop.outcomes loop in
        let ok =
          List.length outcomes = n
          && List.for_all
               (fun (_, (o : Event_loop.outcome)) -> o.Event_loop.error = None)
               outcomes
        in
        Event_loop.shutdown loop;
        if ok then 0 else 1
    end

(* Daemon soak: one daemon process, 8 client processes, each client running
   8 concurrent outbound exchanges on its own event loop — 64 sessions
   hitting the daemon — while the parent scrapes /metrics mid-run
   (including a dribbled two-part request). Afterwards a sequential
   catch-up round makes every replica byte-identical, a final scrape
   must reflect all accepted sessions, and SIGINT must drain the daemon
   cleanly with a flushed journal. *)
let daemon_soak () =
  let n_clients = 8 and per_client = 8 in
  (* Eight enrolments burn two CA signatures each; height 6 = 64 leaves. *)
  let ca =
    Result.get_ok
      (Node_store.init ~dir:(fresh_dir "ca7") ~seed:"ca7-seed" ~height:6
         ~init_crdts:
           [ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset
                Value.T_string) ]
         ())
  in
  let ca_dir = ca.Node_store.dir in
  let client_dirs =
    List.init n_clients (fun i ->
        let dir = fresh_dir (Printf.sprintf "soak%d" i) in
        let store = Result.get_ok (Node_store.enroll ~ca_dir ~dir
            ~seed:(Printf.sprintf "soak%d-seed" i) ~height:4 ~role:"member" ()) in
        let _ = Result.get_ok (Node_store.append store ~crdt:"log" ~op:"add"
            [ Value.String (Printf.sprintf "from-soak-%d" i) ]) in
        dir)
  in
  (* Every enrolment grew the CA chain: genesis + 8 admissions, and each
     client additionally holds its own appended block. Fully converged,
     every replica has all of it. *)
  let expect_blocks = 1 + n_clients + n_clients in
  (* The daemon serves the CA directory with buffered telemetry until
     SIGINT; its first line names both bound ports. *)
  let daemon, pport = start_daemon ~metrics:true ca_dir in
  let mport = metrics_port daemon in
  (* 8 clients, each dialing [per_client] concurrent exchanges. *)
  let clients =
    List.map
      (fun dir ->
        start_child ~report:false "soak-client"
          [ dir; string_of_int pport; string_of_int per_client ])
      client_dirs
  in
  (* Scrape mid-run: once whole, once dribbled in two writes with a
     pause between — the daemon must reassemble the request head. *)
  let scrape ?(dribble = false) () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
    let req = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" in
    (if dribble then begin
       ignore (Unix.write_substring fd req 0 9);
       Unix.sleepf 0.05;
       ignore (Unix.write_substring fd req 9 (String.length req - 9))
     end
     else ignore (Unix.write_substring fd req 0 (String.length req)));
    let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    in
    drain ();
    Unix.close fd;
    Buffer.contents buf
  in
  let mid1 = scrape () in
  let mid2 = scrape ~dribble:true () in
  check_b "mid-run scrape exposes the live session gauge" true
    (contains mid1 "vegvisir_daemon_sessions_active");
  check_b "dribbled scrape answered" true
    (contains mid2 "HTTP/1.1 200" && contains mid2 "vegvisir_daemon_accepted");
  List.iter
    (fun c ->
      check_b "client exchanges all succeeded" true
        (reap c = Unix.WEXITED 0))
    clients;
  (* Catch-up round: by now the daemon holds every replica's blocks;
     one more pull each makes all nine directories identical. *)
  List.iter
    (fun dir ->
      let store = Result.get_ok (Node_store.load ~dir) in
      match
        Live_sync.pull ~store ~timeout_s:10. ~host:"127.0.0.1" ~port:pport ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "catch-up pull from %s failed: %s" dir e)
    client_dirs;
  (* The final scrape must account for every session the soak opened. *)
  let final = scrape () in
  let accepted =
    let key = "\nvegvisir_daemon_accepted " in
    let rec find i =
      if i + String.length key > String.length final then None
      else if String.sub final i (String.length key) = key then begin
        let j = i + String.length key in
        let k = ref j in
        while
          !k < String.length final
          && final.[!k] >= '0'
          && final.[!k] <= '9'
        do
          incr k
        done;
        Some (int_of_string (String.sub final j (!k - j)))
      end
      else find (i + 1)
    in
    find 0
  in
  (match accepted with
  | Some n ->
    check_b "daemon accepted all soak sessions" true
      (n >= n_clients * per_client)
  | None -> Alcotest.fail "no vegvisir_daemon_accepted in final scrape");
  check_b "final scrape shows completed sessions" true
    (contains final "vegvisir_daemon_sessions_completed");
  (* Graceful shutdown: SIGINT drains and flushes the journal. *)
  Unix.kill daemon.pid Sys.sigint;
  check_b "daemon drained cleanly on SIGINT" true (reap daemon = Unix.WEXITED 0);
  (* Byte-identical convergence, checked on the persisted state. *)
  let canon dir =
    let store = Result.get_ok (Node_store.load ~dir) in
    V.Dag.to_string (V.Node.dag store.Node_store.node)
  in
  let daemon_dag = canon ca_dir in
  check_i "daemon holds the full soak DAG" expect_blocks
    (V.Dag.cardinal
       (V.Node.dag
          (Result.get_ok (Node_store.load ~dir:ca_dir)).Node_store.node));
  List.iter
    (fun dir ->
      check_b (dir ^ " converged byte-identically") true
        (String.equal daemon_dag (canon dir)))
    client_dirs;
  (* The SIGINT path flushed the daemon's buffered telemetry. *)
  check_b "daemon journal flushed on shutdown" true
    (Node_store.load_trace ~dir:ca_dir <> [])

(* Live in-daemon health: a three-daemon fleet where A runs anti-entropy
   against B and C, while the parent polls A's /health endpoint mid-run.
   Asserts the streaming scoreboard end-to-end: per-peer rows appear for
   every configured peer, divergence falls back to 0 once the fleet has
   converged, the loop self-profile and build/uptime gauges are exposed,
   and the scoreboard-driven dial order is reproducible across two
   identically-seeded runs (modulo ephemeral ports, normalised away by
   mapping dial labels to their rank in sorted-label order). *)

(* The ["dials"] array of a /health body, as label strings. *)
let dials_of_health body =
  let key = "\"dials\":[" in
  let n = String.length body and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub body i m = key then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start ->
    let stop = ref start in
    while !stop < n && body.[!stop] <> ']' do incr stop done;
    let inner = String.sub body start (!stop - start) in
    if String.equal inner "" then []
    else
      String.split_on_char ',' inner
      |> List.map (fun s ->
             match String.split_on_char '"' s with
             | [ _; label; _ ] -> label
             | _ -> Alcotest.failf "unparseable dial entry %S" s)

(* One fleet run: start B and C as plain serving daemons, and A with
   anti-entropy pointed at both plus a metrics listener, then poll
   /health until both peer rows report divergence 0 and at least
   [want_dials] dials are on record. Returns (peer labels of B and C,
   the final health body, the /metrics exposition, the dial log). *)
let run_live_fleet ~tag ~want_dials =
  let ca =
    Result.get_ok
      (Node_store.init ~dir:(fresh_dir (tag ^ "-ca")) ~seed:"live-ca-seed"
         ~height:6
         ~init_crdts:
           [ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset
                Value.T_string) ]
         ())
  in
  let ca_dir = ca.Node_store.dir in
  (* B and C each hold a block A lacks, so A's scoreboard sees real
     divergence close during the run. *)
  let peer_dirs =
    List.map
      (fun name ->
        let dir = fresh_dir (tag ^ "-" ^ name) in
        let store = Result.get_ok (Node_store.enroll ~ca_dir ~dir
            ~seed:("live-" ^ name ^ "-seed") ~height:4 ~role:"member" ()) in
        let _ = Result.get_ok (Node_store.append store ~crdt:"log" ~op:"add"
            [ Value.String ("from-" ^ name) ]) in
        dir)
      [ "b"; "c" ]
  in
  let peers = List.map (fun dir -> start_daemon dir) peer_dirs in
  let labels =
    List.map (fun (_, port) -> Printf.sprintf "127.0.0.1:%d" port) peers
  in
  let a, _ =
    start_daemon ~metrics:true ~anti_entropy_ms:50 ~peers:(List.map snd peers)
      ca_dir
  in
  let mport = metrics_port a in
  let get path =
    match
      Http_probe.get ~timeout_s:5. ~host:"127.0.0.1" ~port:mport ~path ()
    with
    | Ok body -> body
    | Error e -> Alcotest.failf "GET %s failed: %s" path e
  in
  let settled body =
    List.for_all
      (fun l ->
        contains body (Printf.sprintf {|{"peer":"%s","divergence":0|} l))
      labels
    && List.length (dials_of_health body) >= want_dials
  in
  let deadline = Unix_compat.now () +. 30. in
  let rec poll () =
    let body = get "/health" in
    if settled body then body
    else if Unix_compat.now () > deadline then
      Alcotest.failf "fleet never settled; last /health: %s" body
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  let health = poll () in
  let metrics = get "/metrics" in
  let daemons = a :: List.map fst peers in
  List.iter (fun c -> Unix.kill c.pid Sys.sigint) daemons;
  List.iter
    (fun c -> check_b "daemon drained cleanly" true (reap c = Unix.WEXITED 0))
    daemons;
  (labels, health, metrics, dials_of_health health)

let live_health_soak () =
  let n_dials = 5 in
  let labels, health, metrics, dials =
    run_live_fleet ~tag:"live1" ~want_dials:n_dials
  in
  (* Every configured peer has a live scoreboard row (already divergence
     0 by the poll condition); the body carries the health fold, the
     loop self-profile, and the daemon identity. *)
  List.iter
    (fun l ->
      check_b (l ^ " row present") true
        (contains health (Printf.sprintf {|"peer":"%s"|} l)))
    labels;
  check_b "health fold inlined" true (contains health {|"converged":|});
  check_b "loop self-profile inlined" true
    (contains health {|"slow_iterations":|});
  check_b "build identity" true (contains health {|"build":"vegvisir/|});
  check_b "uptime reported" true (contains health {|"uptime_s":|});
  (* The Prometheus exposition of the same loop: satellite gauges and
     the merged monitor/scoreboard projection. *)
  check_b "uptime gauge" true (contains metrics "vegvisir_daemon_uptime_seconds");
  check_b "build info gauge" true
    (contains metrics "vegvisir_build_info{node=\"vegvisir/");
  check_b "profiling histograms" true
    (contains metrics "vegvisir_loop_engine_step_ms_bucket");
  check_b "scoreboard exported" true (contains metrics "vegvisir_peer_divergence");
  check_b "health fold exported" true (contains metrics "vegvisir_health_converged");
  (* Dial-order determinism: a second identically-shaped fleet must make
     the same scheduling decisions. Ephemeral ports differ between runs,
     so compare label ranks (position in sorted-label order), not raw
     labels. *)
  let normalise labels dials =
    let sorted = List.sort String.compare labels in
    List.map
      (fun d ->
        match List.find_index (String.equal d) sorted with
        | Some i -> i
        | None -> Alcotest.failf "dial %s is not a configured peer" d)
      dials
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let labels2, _, _, dials2 =
    run_live_fleet ~tag:"live2" ~want_dials:n_dials
  in
  Alcotest.(check (list int))
    "same-seed runs dial in the same scoreboard order"
    (take n_dials (normalise labels dials))
    (take n_dials (normalise labels2 dials2))

(* Cross-daemon span tracing + the flight recorder, end to end over real
   sockets: daemon A (trace_sample 1.0, anti-entropy pointed at B) and
   daemon B each expose /debug/spans; the parent polls both until one
   exchange's spans appear on both sides, then asserts the stitch — the
   same trace id in both processes, with B's serve span (and A's
   exchange span) parented on the span A announced over the wire.
   Afterwards: /debug/flight parses as a JSONL dump, the runtime gauges
   are on /metrics, and SIGQUIT makes A write flight.jsonl without
   stopping. *)

let json_str_field line name =
  let key = "\"" ^ name ^ "\":\"" in
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = key then begin
      let stop = ref (i + m) in
      while !stop < n && line.[!stop] <> '"' do
        incr stop
      done;
      Some (String.sub line (i + m) (!stop - (i + m)))
    end
    else find (i + 1)
  in
  find 0

let span_lines body name =
  String.split_on_char '\n' body
  |> List.filter (fun l -> contains l ("\"name\":\"" ^ name ^ "\""))

let daemon_span_stitch_and_flight () =
  let ca =
    Result.get_ok
      (Node_store.init ~dir:(fresh_dir "span-ca") ~seed:"span-ca-seed"
         ~height:6
         ~init_crdts:
           [ ("log", Vegvisir_crdt.Schema.spec Vegvisir_crdt.Schema.Gset
                Value.T_string) ]
         ())
  in
  let ca_dir = ca.Node_store.dir in
  let b_dir = fresh_dir "span-b" in
  let b_store =
    Result.get_ok
      (Node_store.enroll ~ca_dir ~dir:b_dir ~seed:"span-b-seed" ~height:4
         ~role:"member" ())
  in
  (* B holds a block A lacks, so sampled exchanges move real data. *)
  let _ =
    Result.get_ok
      (Node_store.append b_store ~crdt:"log" ~op:"add"
         [ Value.String "from-b" ])
  in
  (* Both daemons sample every session they initiate for tracing. *)
  let b, b_pport = start_daemon ~metrics:true ~trace_sample:1.0 b_dir in
  let b_mport = metrics_port b in
  let a, _ =
    start_daemon ~metrics:true ~trace_sample:1.0 ~anti_entropy_ms:50
      ~peers:[ b_pport ] ca_dir
  in
  let a_mport = metrics_port a in
  let get port path =
    match
      Http_probe.get ~timeout_s:5. ~host:"127.0.0.1" ~port ~path ()
    with
    | Ok body -> body
    | Error e -> Alcotest.failf "GET %s failed: %s" path e
  in
  (* Wait until one sampled exchange has landed spans on both sides. *)
  let deadline = Unix_compat.now () +. 30. in
  let rec poll () =
    let a = get a_mport "/debug/spans" and b = get b_mport "/debug/spans" in
    if
      span_lines a "session.announce" <> []
      && span_lines a "session.exchange" <> []
      && span_lines b "session.serve" <> []
    then (a, b)
    else if Unix_compat.now () > deadline then
      Alcotest.failf "spans never stitched; A: %s B: %s" a b
    else begin
      Unix.sleepf 0.05;
      poll ()
    end
  in
  let a_spans, b_spans = poll () in
  let announces = span_lines a_spans "session.announce" in
  let stitches_to_announce line =
    match (json_str_field line "trace", json_str_field line "parent") with
    | Some trace, Some parent ->
      List.exists
        (fun an ->
          json_str_field an "trace" = Some trace
          && json_str_field an "span" = Some parent)
        announces
    | (None | Some _), (None | Some _) -> false
  in
  (* The runtime stitch: B's serve spans and A's exchange spans carry
     the same trace id A announced, parented on the announced span. *)
  check_b "every serve span stitches under an announce" true
    (List.for_all stitches_to_announce (span_lines b_spans "session.serve"));
  check_b "every exchange span stitches under an announce" true
    (List.for_all stitches_to_announce (span_lines a_spans "session.exchange"));
  (* /debug/flight is a parseable JSONL dump: header, journal-decodable
     body lines, one-line registry trailer. *)
  let flight = get a_mport "/debug/flight" in
  (match String.split_on_char '\n' flight with
  | header :: rest when contains header {|{"flight":{"capacity":|} ->
    let body =
      List.filter (fun l -> l <> "" && not (contains l {|{"registry":|})) rest
    in
    check_b "flight body lines decode as events" true
      (body <> []
      && List.for_all
           (fun l -> Vegvisir_obs.Event.of_json l <> None)
           body);
    check_b "registry trailer present" true
      (List.exists (fun l -> contains l {|{"registry":|}) rest)
  | _ -> Alcotest.failf "unexpected flight dump: %s" flight);
  (* Runtime gauges ride the same registry as everything else. *)
  let metrics = get a_mport "/metrics" in
  check_b "gc gauges" true
    (contains metrics "vegvisir_gc_minor_collections"
    && contains metrics "vegvisir_gc_heap_words");
  check_b "fd gauge" true (contains metrics "vegvisir_fds_open");
  check_b "timer depth gauge" true (contains metrics "vegvisir_loop_timer_depth");
  (* SIGQUIT: the daemon dumps its flight ring to disk and keeps
     serving. *)
  let flight_file = Filename.concat ca_dir "flight.jsonl" in
  check_b "no dump before SIGQUIT" false (Sys.file_exists flight_file);
  Unix.kill a.pid Sys.sigquit;
  let deadline = Unix_compat.now () +. 10. in
  let rec wait_dump () =
    if Sys.file_exists flight_file then ()
    else if Unix_compat.now () > deadline then
      Alcotest.fail "SIGQUIT produced no flight.jsonl"
    else begin
      Unix.sleepf 0.05;
      wait_dump ()
    end
  in
  wait_dump ();
  let dumped = In_channel.with_open_bin flight_file In_channel.input_all in
  check_b "dump has the flight header" true
    (contains dumped {|{"flight":{"capacity":|});
  check_b "dump carries the registry" true (contains dumped {|{"registry":|});
  check_b "daemon survives SIGQUIT" true
    (String.length (get a_mport "/health") > 0);
  List.iter (fun c -> Unix.kill c.pid Sys.sigint) [ a; b ];
  List.iter
    (fun c -> check_b "daemon drained cleanly" true (reap c = Unix.WEXITED 0))
    [ a; b ]

(* Timer wheel edge cases: the determinism contract the event loop's
   anti-entropy scheduler leans on (same deadline feed, same firing
   order) exercised at its boundaries. *)

(* A daemon serving pulls of an unchanged replica has nothing to save:
   no pull makes a block resident, so chain.dag is never rewritten, yet
   each session's journal lines reach trace.jsonl when the session is
   reaped rather than waiting for shutdown. *)
let serve_only_daemon () =
  let module Obs = Vegvisir_obs in
  let ca = init "serve-only" in
  let ca_dir = ca.Node_store.dir in
  let client =
    Result.get_ok
      (Node_store.enroll ~ca_dir ~dir:(fresh_dir "serve-only-client")
         ~seed:"serve-only-client-seed" ~height:4 ~role:"member" ())
  in
  let count p =
    List.length (List.filter (fun (_, ev) -> p ev) (Node_store.load_trace ~dir:ca_dir))
  in
  let saved = function[@warning "-4"] Obs.Event.Store_saved _ -> true | _ -> false in
  let completed = function[@warning "-4"]
    | Obs.Event.Sync_completed _ -> true
    | _ -> false
  in
  let saves_before = count saved in
  let daemon, port = start_daemon ca_dir in
  (* A failed check must not leave the daemon orphaned. *)
  let drained = ref false in
  Fun.protect ~finally:(fun () ->
      if not !drained then begin
        Unix.kill daemon.pid Sys.sigkill;
        ignore (reap daemon)
      end)
  @@ fun () ->
  let pulls = 3 in
  for _ = 1 to pulls do
    let loop = Event_loop.create ~store:client () in
    (match
       Event_loop.connect_exchange ~timeout_s:10. loop ~host:"127.0.0.1"
         ~port ()
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "dial failed: %s" e);
    (match
       Event_loop.run loop ~until:(fun st ->
           st.Event_loop.completed + st.Event_loop.failed >= 1)
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "exchange failed: %s" e);
    check_i "pull completed" 0 (Event_loop.stats loop).Event_loop.failed;
    Event_loop.shutdown loop
  done;
  (* The daemon reaps a session just after the client sees it end. *)
  let rec wait n =
    if count completed < pulls && n > 0 then begin
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  check_i "every session journaled before shutdown" pulls (count completed);
  check_i "no save while serving" saves_before (count saved);
  Unix.kill daemon.pid Sys.sigint;
  let status = reap daemon in
  drained := true;
  check_b "daemon drained cleanly on SIGINT" true (status = Unix.WEXITED 0);
  check_i "no save at shutdown either" saves_before (count saved)

let wheel_duplicate_deadlines () =
  let w = Timer_wheel.empty in
  let w, ia = Timer_wheel.schedule w ~at_ms:10. "a" in
  let w, ib = Timer_wheel.schedule w ~at_ms:10. "b" in
  let w, ic = Timer_wheel.schedule w ~at_ms:5. "c" in
  check_b "ids distinct" true (ia <> ib && ib <> ic && ia <> ic);
  check_i "all armed" 3 (Timer_wheel.cardinal w);
  let fired, w = Timer_wheel.expired w ~now_ms:10. in
  Alcotest.(check (list string))
    "earliest first, ties in schedule order" [ "c"; "a"; "b" ]
    (List.map snd fired);
  check_b "wheel drained" true (Timer_wheel.is_empty w)

let wheel_fires_exactly_at_now () =
  let w = Timer_wheel.empty in
  let w, _ = Timer_wheel.schedule w ~at_ms:10. "edge" in
  let before, w = Timer_wheel.expired w ~now_ms:(Float.pred 10.) in
  check_i "not due just before" 0 (List.length before);
  (match Timer_wheel.next_deadline w with
  | Some d -> Alcotest.(check (float 0.)) "deadline intact" 10. d
  | None -> Alcotest.fail "deadline lost by an early sweep");
  let at, w = Timer_wheel.expired w ~now_ms:10. in
  Alcotest.(check (list string)) "due exactly at now" [ "edge" ]
    (List.map snd at);
  (* A deadline already in the past arms and fires on the next sweep. *)
  let w, _ = Timer_wheel.schedule w ~at_ms:3. "late" in
  let past, w = Timer_wheel.expired w ~now_ms:10. in
  Alcotest.(check (list string)) "past deadline fires" [ "late" ]
    (List.map snd past);
  check_b "empty again" true (Timer_wheel.is_empty w)

(* Interleaved schedule/sweep against a naive oracle: whatever the
   interleaving, every sweep returns exactly the armed timers due at or
   before now, earliest deadline first, ties in schedule order. *)
let wheel_interleaved_qcheck =
  QCheck.Test.make ~count:300 ~name:"interleaved add/fire matches oracle"
    QCheck.(list (pair bool (int_bound 20)))
    (fun ops ->
      let w = ref Timer_wheel.empty in
      let pending = ref [] (* (at, seq) of armed, unfired timers *)
      and now = ref 0.
      and seq = ref 0
      and ok = ref true in
      List.iter
        (fun (is_schedule, d) ->
          if is_schedule then begin
            let at = !now +. float_of_int d in
            let w', _ = Timer_wheel.schedule !w ~at_ms:at !seq in
            w := w';
            pending := (at, !seq) :: !pending;
            incr seq
          end
          else begin
            now := !now +. float_of_int d;
            let fired, w' = Timer_wheel.expired !w ~now_ms:!now in
            w := w';
            let due, rest =
              List.partition (fun (at, _) -> at <= !now) !pending
            in
            pending := rest;
            let expect =
              List.stable_sort
                (fun (aa, sa) (ab, sb) ->
                  match Float.compare aa ab with
                  | 0 -> Int.compare sa sb
                  | c -> c)
                (List.rev due)
              |> List.map snd
            in
            if List.map snd fired <> expect then ok := false
          end)
        ops;
      !ok && Timer_wheel.cardinal !w = List.length !pending)

(* The /metrics endpoint end-to-end over a real loopback socket: the
   child plays Prometheus with raw HTTP; the parent answers one scrape
   and one bad target. *)
(* A peer that announces a maximal frame and then sends 16 bytes must
   not make the loop allocate the announced length: the session's
   payload buffer grows only with the bytes that actually arrive. *)
let hostile_frame_header () =
  let store = init "hostile" in
  let loop = Event_loop.create ~store () in
  let port = Result.get_ok (Event_loop.listen_peers loop ~port:0 ()) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let frame = Bytes.make (4 + 16) 'x' in
  Bytes.set_int32_be frame 0 (Int32.of_int V.Wire.max_frame);
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  Unix.close fd;
  let before = Gc.allocated_bytes () in
  let r = Event_loop.run loop ~until:(fun st -> st.Event_loop.failed >= 1) in
  let allocated = Gc.allocated_bytes () -. before in
  Event_loop.shutdown loop;
  check_b "loop ran" true (Result.is_ok r);
  (match Event_loop.outcomes loop with
  | [ (_, { Event_loop.error = Some e; _ }) ] ->
    check_b ("failed mid-frame: " ^ e) true (contains e "mid-frame")
  | _ -> Alcotest.fail "expected exactly one failed session");
  check_b
    (Printf.sprintf "allocated %.1f MiB" (allocated /. 1048576.))
    true (allocated < 1048576.)

(* A raw client socket whose frames are written without blocking: what
   the kernel does not take at once is written later by [pump], which
   also collects whatever the far end sent. *)
type raw = { fd : Unix.file_descr; mutable out : string; got : Buffer.t }

let pump c =
  (if String.length c.out > 0 then
     match Unix.write_substring c.fd c.out 0 (String.length c.out) with
     | n -> c.out <- String.sub c.out n (String.length c.out - n)
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let chunk = Bytes.create 65536 in
  let rec read () =
    match Unix.read c.fd chunk 0 65536 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes c.got chunk 0 n;
      read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  read ()

let raw_client port frames =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  let c = { fd; out = String.concat "" frames; got = Buffer.create 256 } in
  pump c;
  c

(* The messages in the complete frames [c] has received so far. *)
let received c =
  let s = Buffer.contents c.got in
  let rec go at =
    if at + 4 > String.length s then []
    else
      let n = Int32.to_int (String.get_int32_be s at) in
      if at + 4 + n > String.length s then []
      else V.Wire.decode_string V.Reconcile.decode_message (String.sub s (at + 4) n) :: go (at + 4 + n)
  in
  go 0

let framed m =
  let b = Buffer.create 64 in
  V.Reconcile.encode_message b m;
  Unix_compat.encode_frame (Buffer.contents b)

(* Hostile requests to one in-process loop. The first client writes, in
   one 114-byte write, a request, the turn-over, and a digest request
   whose intervals descend, which the loop must refuse while its own
   pull from that client is in flight. The second writes three costly
   requests: a frontier at the top u32 level, a digest over [0, 2^32-1],
   and one resident hash named 10,000 times. Each costly request gets
   one reply, the refused one none, and the loop still answers a fresh
   connection. *)
let hostile_requests () =
  let store = init "hostile-requests" in
  let known = V.Hash_id.Set.min_elt (V.Dag.frontier (V.Node.dag store.Node_store.node)) in
  let loop = Event_loop.create ~store () in
  let port = Result.get_ok (Event_loop.listen_peers loop ~port:0 ()) in
  let top = 0xFFFF_FFFF in
  let iv lo hi = { V.Reconcile.lo; hi; digest = String.make 32 'd' } in
  let refused =
    [
      framed (V.Reconcile.Frontier_request { level = 1 });
      Unix_compat.encode_frame "";
      framed (V.Reconcile.Digest_request { upto = 0; intervals = [ iv 5 6; iv 1 2 ] });
    ]
  in
  check_i "one 114-byte write" 114 (String.length (String.concat "" refused));
  let killer = raw_client port refused in
  let costly =
    raw_client port
      [
        framed (V.Reconcile.Frontier_request { level = top });
        framed (V.Reconcile.Digest_request { upto = top; intervals = [ iv 0 top ] });
        framed (V.Reconcile.Blocks_request { hashes = List.init 10_000 (fun _ -> known) });
      ]
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let run_until clients enough =
    Event_loop.run loop ~until:(fun _ ->
        List.iter pump clients;
        enough () || Unix.gettimeofday () > deadline)
  in
  let count c = List.length (received c) in
  let r1 = run_until [ killer; costly ] (fun () -> count killer >= 2 && count costly >= 3) in
  let fresh = raw_client port [ framed (V.Reconcile.Frontier_request { level = 1 }) ] in
  let r2 = run_until [ killer; costly; fresh ] (fun () -> count fresh >= 1) in
  Event_loop.shutdown loop;
  List.iter (fun c -> Unix.close c.fd) [ killer; costly; fresh ];
  check_b "loop survived" true (Result.is_ok r1 && Result.is_ok r2);
  (match received killer with
  | [ Some (V.Reconcile.Frontier_reply _); Some (V.Reconcile.Frontier_request _) ] -> ()
  | _ -> Alcotest.fail "expected the request's reply and the pull-back, then nothing");
  (match received costly with
  | [
   Some (V.Reconcile.Frontier_reply _);
   Some (V.Reconcile.Digest_reply _);
   Some (V.Reconcile.Blocks_reply { blocks = [ b ] });
  ] ->
    check_b "the named block, once" true (V.Hash_id.equal b.V.Block.hash known)
  | _ -> Alcotest.fail "expected one reply per costly request");
  match received fresh with
  | [ Some (V.Reconcile.Frontier_reply _) ] -> ()
  | _ -> Alcotest.fail "a fresh connection must still be answered"

(* Child role [frame-client PORT HASH]: send three Blocks_request frames
   of 3000, 10 and 6000 unknown hashes, each followed by HASH, and exit 0
   when every reply carries exactly the block HASH names. *)
let frame_client port known =
  let known = Option.get (V.Hash_id.of_hex known) in
  let request n =
    let filler i = V.Hash_id.of_raw_exn (Printf.sprintf "%032d" i) in
    let b = Buffer.create 256 in
    V.Reconcile.encode_message b
      (V.Reconcile.Blocks_request { hashes = List.init n filler @ [ known ] });
    Buffer.contents b
  in
  let answered conn n =
    Result.is_ok (Unix_compat.send_frame conn (request n))
    &&
    match Unix_compat.recv_frame ~timeout_s:10. conn with
    | Ok (Unix_compat.Frame reply) -> (
      match V.Wire.decode_string V.Reconcile.decode_message reply with
      | Some (V.Reconcile.Blocks_reply { blocks = [ b ] }) -> V.Hash_id.equal b.V.Block.hash known
      | Some _ | None -> false)
    | Ok (Unix_compat.Timeout | Unix_compat.Closed) | Error _ -> false
  in
  let ok =
    match Unix_compat.connect ~host:"127.0.0.1" ~port () with
    | Error _ -> false
    | Ok conn ->
      let ok = List.for_all (answered conn) [ 3000; 10; 6000 ] in
      Unix_compat.close_conn conn;
      ok
  in
  if ok then 0 else 1

(* Frames far larger than the first read chunk must reach the engine
   intact, also when a later frame reuses the chunks of an earlier one
   and then needs more. Each request names thousands of unknown hashes
   and, last, one the loop holds: only a byte-exact reassembly gets that
   block back. *)
let multi_chunk_frames () =
  let store = init "chunks" in
  let known = V.Hash_id.Set.min_elt (V.Dag.frontier (V.Node.dag store.Node_store.node)) in
  let loop = Event_loop.create ~store () in
  let port = Result.get_ok (Event_loop.listen_peers loop ~port:0 ()) in
  let child =
    start_child ~report:false "frame-client"
      [ string_of_int port; V.Hash_id.to_hex known ]
  in
  (* The client hangs up without a turn-over, which ends the session. *)
  let deadline = Unix.gettimeofday () +. 20. in
  let r =
    Event_loop.run loop ~until:(fun st ->
        st.Event_loop.failed + st.Event_loop.completed >= 1
        || Unix.gettimeofday () > deadline)
  in
  Event_loop.shutdown loop;
  let status = reap child in
  check_b "loop ran" true (Result.is_ok r);
  check_b "every reply carried the known block" true (status = Unix.WEXITED 0);
  check_b "three requests served" true ((Event_loop.stats loop).Event_loop.served = 3)

(* Child role [http-client PORT]: scrape /metrics and a bad target from a
   loop's metrics listener; exit 0 when both answers are right. *)
let http_get port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" target in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close fd;
  Buffer.contents buf

let http_client port =
  let ok =
    contains (http_get port "/metrics") "vegvisir_gossip_blocks{node=\"0\"} 7"
    && contains (http_get port "/nope") "404 Not Found"
  in
  if ok then 0 else 1

let metrics_endpoint () =
  let module Obs = Vegvisir_obs in
  let reg = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter reg ~node:"0" "gossip.blocks") 7;
  let render () = Obs.Registry.to_prometheus (Obs.Registry.snapshot reg) in
  (* A store-less loop with only the /metrics listener, as serve --metrics
     runs it. *)
  let loop = Event_loop.create () in
  ignore (Result.get_ok (Event_loop.listen_metrics loop ~port:0 ()));
  let port = Option.get (Event_loop.metrics_port loop) in
  Event_loop.set_render loop render;
  (* Run the loop until it has answered one more scrape (10 s at most). *)
  let handle_one () =
    let target = (Event_loop.stats loop).Event_loop.http_closed + 1 in
    let deadline = Unix.gettimeofday () +. 10. in
    let answered (st : Event_loop.stats) = st.Event_loop.http_closed >= target in
    Result.is_ok
      (Event_loop.run loop ~until:(fun st ->
           answered st || Unix.gettimeofday () > deadline))
    && answered (Event_loop.stats loop)
  in
  let child = start_child ~report:false "http-client" [ string_of_int port ] in
  let r1 = handle_one () in
  let r2 = handle_one () in
  Event_loop.shutdown loop;
  let status = reap child in
  check_b "scrape answered" true r1;
  check_b "bad target answered" true r2;
  check_b "client saw the exposition and the 404" true
    (status = Unix.WEXITED 0)

(* A child process started by a test runs one role and exits, before
   Alcotest ever sees its arguments. *)
let child_main = function
  | [ "serve-once"; dir ] -> serve_once dir
  | [ "soak-client"; dir; port; n ] ->
    soak_client dir (int_of_string port) (int_of_string n)
  | [ "frame-client"; port; known ] -> frame_client (int_of_string port) known
  | [ "http-client"; port ] -> http_client (int_of_string port)
  | args -> Printf.eprintf "unknown child role: %s\n" (String.concat " " args); 2

let () =
  (match Array.to_list Sys.argv with
  | _ :: "child" :: role -> exit (child_main role)
  | _ -> ());
  Random.self_init ();
  Alcotest.run "cli"
    [
      ( "node-store",
        [
          Alcotest.test_case "lifecycle" `Quick lifecycle;
          Alcotest.test_case "enroll and sync" `Quick enroll_and_sync;
          Alcotest.test_case "key rotation" `Quick key_rotation;
          Alcotest.test_case "corruption" `Quick corruption_detected;
          Alcotest.test_case "live socket sync" `Quick live_sync;
          Alcotest.test_case "batch ancestry recovery" `Quick recover_ancestry;
        ] );
      ( "event-loop",
        [
          Alcotest.test_case "hostile frame header" `Quick hostile_frame_header;
          Alcotest.test_case "hostile requests" `Quick hostile_requests;
          Alcotest.test_case "multi-chunk frames" `Quick multi_chunk_frames;
        ] );
      ( "timer-wheel",
        [
          Alcotest.test_case "duplicate deadlines keep schedule order" `Quick
            wheel_duplicate_deadlines;
          Alcotest.test_case "fires exactly at now" `Quick
            wheel_fires_exactly_at_now;
          QCheck_alcotest.to_alcotest wheel_interleaved_qcheck;
        ] );
      ( "metrics-server",
        [ Alcotest.test_case "GET /metrics over loopback" `Quick metrics_endpoint ] );
      ( "daemon",
        [
          Alcotest.test_case "64-session soak" `Slow daemon_soak;
          Alcotest.test_case "live health + scoreboard dialing" `Slow
            live_health_soak;
          Alcotest.test_case "cross-daemon span stitch + flight recorder"
            `Slow daemon_span_stitch_and_flight;
          Alcotest.test_case "serve-only daemon never saves" `Slow
            serve_only_daemon;
        ] );
    ]
