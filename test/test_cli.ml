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
   OCaml 5.1 refuses to fork the process. A daemon or serve child is the
   real [vegvisir-cli]; every other child re-runs this binary with a
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

(* The port printed right after [marker] in [line]. *)
let port_after line marker =
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then Alcotest.failf "no %S in %S" marker line
    else if String.equal (String.sub line i m) marker then begin
      let j = ref (i + m) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string (String.sub line (i + m) (!j - i - m))
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
  (c, port_after c.line " on 127.0.0.1:")

let metrics_port c = port_after c.line "http://127.0.0.1:"

(* Run the built CLI to completion with stdout and stderr in temp files
   (no pipe to fill); returns both and the exit code. *)
let run_cli args =
  let out_path = Filename.temp_file "vv-cli" ".out" in
  let err_path = Filename.temp_file "vv-cli" ".err" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = open_w out_path and err_fd = open_w err_path in
  let pid =
    Unix.create_process cli_exe (Array.of_list (cli_exe :: args)) Unix.stdin
      out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let out = read out_path and err = read err_path in
  Sys.remove out_path;
  Sys.remove err_path;
  (out, err, status)

(* The one-time leaves a directory's key file records as used. *)
let key_used dir =
  let contents =
    In_channel.with_open_bin (Filename.concat dir "key") In_channel.input_all
  in
  Scanf.sscanf contents "mss %d %d" (fun _ used -> used)

(* The leaf that signed [b]: an MSS signature opens with its leaf index
   as a big-endian u32. *)
let leaf_of (b : V.Block.t) = Int32.to_int (String.get_int32_be (V.Block.signature b) 0)

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
  let used_before = key_used ca.Node_store.dir in
  let _b2 = Result.get_ok (Node_store.append reloaded ~crdt:"log" ~op:"add" [ Value.String "two" ]) in
  check_b "key position advanced" true (key_used ca.Node_store.dir > used_before);
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
  let stats = Result.get_ok (Node_store.sync ca ~from:bob ~mode:V.Reconcile.Digest) in
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

(* Each handle saves its own signer's position. Two loads of one
   directory hold two signers; an append through the first must reach
   the key file, or the next load signs again with the leaf it used. *)
let key_position_per_handle () =
  let ca = init "handles" in
  let dir = ca.Node_store.dir in
  let first = Result.get_ok (Node_store.load ~dir) in
  let _second = Result.get_ok (Node_store.load ~dir) in
  let used_before = key_used dir in
  let b1 = Result.get_ok (Node_store.append first ~crdt:"log" ~op:"add" [ Value.String "one" ]) in
  check_i "key file counts the append" (used_before + 1) (key_used dir);
  let reloaded = Result.get_ok (Node_store.load ~dir) in
  let b2 = Result.get_ok (Node_store.append reloaded ~crdt:"log" ~op:"add" [ Value.String "two" ]) in
  check_i "next block signs with the next leaf" (leaf_of b1 + 1) (leaf_of b2)

(* [rotate] with one directory as both CA and node is refused before
   anything is signed or written: the directory still loads and
   verifies with its old key. *)
let rotate_own_ca_refused () =
  let ca = init "self-rotate" in
  let dir = ca.Node_store.dir in
  let files = [ "key"; "cert"; "chain.dag" ] in
  let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  let before = List.map read files in
  let _, err, status =
    run_cli [ "rotate"; "--ca-dir"; dir; "--dir"; dir; "--seed"; "self-rotate-2" ]
  in
  check_b ("exit 1: " ^ err) true (status = Unix.WEXITED 1);
  List.iter2
    (fun f b -> check_b (f ^ " byte-identical") true (String.equal b (read f)))
    files before;
  match Node_store.load ~dir with
  | Error e -> Alcotest.failf "no longer loads: %s" e
  | Ok t -> check_b "still verifies" true (Result.is_ok (Node_store.verify t))

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
     (* If the flip landed somewhere that still decodes, replaying the
        stored chain must refuse the damaged block. *)
     if Result.is_ok (Node_store.verify t) then
       Alcotest.fail "a flipped byte passed both load and verify");
  (* Double-init refused. *)
  match Node_store.init ~dir:ca.Node_store.dir ~seed:"x" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double init accepted"

(* Live socket sync: two divergent file-backed replicas reconcile over a
   real loopback connection through the CLI: [vegvisir-cli serve] serves
   bob's directory in a child process, and [vegvisir-cli sync --live]
   pulls into the CA's. *)
let live_sync () =
  let ca = init "ca5" in
  let bob_dir = fresh_dir "bob5" in
  let bob = Result.get_ok (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:bob_dir
      ~seed:"bob5-seed" ~height:4 ~role:"member" ()) in
  let ca = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let _ = Result.get_ok (Node_store.append ca ~crdt:"log" ~op:"add" [ Value.String "from-ca" ]) in
  let _ = Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "from-bob" ]) in
  (* serve prints the port it bound once it listens, so the client
     cannot race it. *)
  let server =
    start cli_exe
      [ "serve"; "--dir"; bob.Node_store.dir; "--port"; "0"; "--accept-timeout"; "10" ]
  in
  let port = port_after server.line " on 127.0.0.1:" in
  let out, err, status =
    run_cli
      [ "sync"; "--dir"; ca.Node_store.dir; "--live"; Printf.sprintf "127.0.0.1:%d" port ]
  in
  let server_status = reap server in
  check_b "server exchange succeeded" true (server_status = Unix.WEXITED 0);
  check_b ("sync exited 0: " ^ err) true (status = Unix.WEXITED 0);
  (* "pulled N block(s) ..." and "answered N request(s) ..." *)
  let count word =
    match
      List.find_opt (String.starts_with ~prefix:(word ^ " "))
        (String.split_on_char '\n' out)
    with
    | Some line -> Scanf.sscanf line "%_s %d" Fun.id
    | None -> Alcotest.failf "no %S line in %S" word out
  in
  check_b "pulled bob's block" true (count "pulled" >= 1);
  check_b "answered the pull back" true (count "answered" >= 1);
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
  let events =
    List.concat_map
      (fun dir ->
        let events = Node_store.load_trace ~dir in
        check_b (dir ^ " wrote trace.jsonl") true (events <> []);
        events)
      [ ca.Node_store.dir; bob.Node_store.dir ]
  in
  let spans = Obs.Span.of_events events in
  let nodes_at trace name =
    List.filter_map
      (fun (s : Obs.Span.t) ->
        if String.equal s.trace trace && String.equal s.name name then
          Some s.node
        else None)
      spans
  in
  let crossed =
    List.filter
      (fun trace ->
        match nodes_at trace "block.created" with
        | [ creator ] ->
          List.exists
            (fun n -> not (String.equal n creator))
            (nodes_at trace "block.delivered")
          && nodes_at trace "block.received" <> []
        | _ -> false)
      (List.sort_uniq String.compare
         (List.map (fun (s : Obs.Span.t) -> s.trace) spans))
  in
  check_b "a block traces created -> received -> delivered across replicas"
    true
    (List.length crossed >= 2)

(* serve reports the port it bound, and with no peer dialing it gives
   up after --accept-timeout. *)
let serve_accept_timeout () =
  let store = init "serve-timeout" in
  let out, err, status =
    run_cli
      [ "serve"; "--dir"; store.Node_store.dir; "--port"; "0"; "--accept-timeout"; "0.3" ]
  in
  check_b "exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check string)
    "stderr" "error: timed out waiting for a peer to connect\n" err;
  check_b ("reports a bound port: " ^ out) true (port_after out " on 127.0.0.1:" > 0)

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

(* [enroll] a member of [ca]'s chain in a fresh directory. *)
let member ca name =
  Result.get_ok
    (Node_store.enroll ~ca_dir:ca.Node_store.dir ~dir:(fresh_dir name)
       ~seed:(name ^ "-seed") ~height:4 ~role:"member" ())

let log_add entry =
  V.Transaction.make ~crdt:"log" ~op:"add" [ Value.String entry ]

let wall_ts ?(ahead_s = 0.) () =
  V.Timestamp.of_seconds (Unix.gettimeofday () +. ahead_s)

(* The blocks a directory's journal records in [phase]. *)
let journaled dir phase =
  List.filter_map
    (fun (_, ev) ->
      match ev with
      | Vegvisir_obs.Event.Block { phase = p; block; _ } when p = phase -> Some block
      | _ -> None)
    (Node_store.load_trace ~dir)

(* [sync --from] journals and counts only the blocks the destination
   made resident: a source block stamped a minute ahead is pulled and
   refused, so it gets [Received] but no [Delivered], and
   [Sync_completed.pulled] leaves it out. *)
let sync_from_rejected () =
  let module Obs = Vegvisir_obs in
  let ca = init "reject-ca" in
  let bob = member ca "reject-bob" in
  let on_time =
    Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "on time" ])
  in
  let ahead =
    Result.get_ok
      (V.Node.append bob.Node_store.node ~now:(wall_ts ~ahead_s:60. ()) [ log_add "ahead" ])
  in
  let dst = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let _ = Result.get_ok (Node_store.sync dst ~from:bob ~mode:V.Reconcile.Naive) in
  let dir = ca.Node_store.dir in
  let has phase (b : V.Block.t) =
    List.exists (V.Hash_id.equal b.V.Block.hash) (journaled dir phase)
  in
  check_b "the refused block was received" true (has Obs.Event.Received ahead);
  check_b "the refused block was not delivered" false (has Obs.Event.Delivered ahead);
  check_b "the admitted block was validated and delivered" true
    (has Obs.Event.Validated on_time && has Obs.Event.Delivered on_time);
  check_b "pulled counts the admitted block only" true
    (List.filter_map
       (fun (_, ev) ->
         match ev with
         | Obs.Event.Sync_completed { pulled; _ } -> Some pulled
         | _ -> None)
       (Node_store.load_trace ~dir)
     = [ 1 ])

(* A block the node appended while its clock ran a minute ahead
   survives reloads: a store re-admits its own blocks against a clock no
   earlier than the newest of them, so the save after each load keeps
   it. *)
let reload_keeps_block_stamped_ahead () =
  let a = init "ahead" in
  let ahead =
    Result.get_ok
      (V.Node.append a.Node_store.node ~now:(wall_ts ~ahead_s:60. ()) [ log_add "ahead" ])
  in
  Result.get_ok (Node_store.save a);
  let reload t =
    let t = Result.get_ok (Node_store.load ~dir:t.Node_store.dir) in
    Result.get_ok (Node_store.save t);
    t
  in
  let dag = V.Node.dag (reload (reload a)).Node_store.node in
  check_i "genesis and the block stamped ahead" 2 (V.Dag.cardinal dag);
  check_b "the block stamped ahead is resident" true (V.Dag.mem dag ahead.V.Block.hash)

(* A save that fails after a pull is an error, not a silent loss: the
   destination's chain.dag is replaced by a directory once loaded, which
   fails the write even for root, where permission bits would not. *)
let sync_from_failed_save () =
  let ca = init "failsave-ca" in
  let bob = member ca "failsave-bob" in
  let _ = Result.get_ok (Node_store.append bob ~crdt:"log" ~op:"add" [ Value.String "x" ]) in
  let dst = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let chain = Filename.concat ca.Node_store.dir "chain.dag" in
  Sys.remove chain;
  Sys.mkdir chain 0o755;
  match Node_store.sync dst ~from:bob ~mode:V.Reconcile.Naive with
  | Ok _ -> Alcotest.fail "the save into a directory succeeded"
  | Error _ -> ()

(* The hashes of the blocks a chain.dag image holds. *)
let stored_hashes raw =
  match V.Dag.of_string raw with
  | Some dag -> V.Hash_id.Set.of_list (List.map (fun b -> b.V.Block.hash) (V.Dag.blocks dag))
  | None -> Alcotest.fail "chain.dag does not decode"

let read_chain dir = In_channel.with_open_bin (Filename.concat dir "chain.dag") In_channel.input_all

(* Flip one byte in the last block's signature, which ends the block
   list ahead of the 4-byte empty archive list: the file still decodes,
   with that block under a new hash, which is returned. *)
let damage_last_block dir =
  let raw = read_chain dir in
  let tampered = Bytes.of_string raw in
  let i = Bytes.length tampered - 200 in
  Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
  Out_channel.with_open_bin (Filename.concat dir "chain.dag") (fun oc ->
      Out_channel.output_bytes oc tampered);
  match
    V.Hash_id.Set.elements
      (V.Hash_id.Set.diff (stored_hashes (Bytes.to_string tampered)) (stored_hashes raw))
  with
  | [ h ] -> h
  | hs -> Alcotest.failf "expected one changed block, got %d" (List.length hs)

let append_values t =
  List.iter (fun v ->
      ignore (Result.get_ok (Node_store.append t ~crdt:"log" ~op:"add" [ Value.String v ])))

(* [verify] replays the stored chain.dag, not the loaded replica. One
   flipped byte in the last block's signature leaves the file decodable
   under a new hash for that block; [load] refuses the block silently,
   and [verify] exits 1 naming it. *)
let verify_reports_dropped_block () =
  let a = init "verify-dropped" in
  let dir = a.Node_store.dir in
  append_values a [ "one"; "two" ];
  let out, _, status = run_cli [ "verify"; "--dir"; dir ] in
  check_b "untouched: exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check string) "untouched: stdout" "ok: 3 block(s) revalidated from the genesis\n" out;
  let damaged = damage_last_block dir in
  let loaded = Result.get_ok (Node_store.load ~dir) in
  check_i "load drops it" 2 (V.Dag.cardinal (V.Node.dag loaded.Node_store.node));
  let _, err, status = run_cli [ "verify"; "--dir"; dir ] in
  check_b "damaged: exit 1" true (status = Unix.WEXITED 1);
  check_b ("names the block: " ^ err) true (contains err (V.Hash_id.short damaged))

(* A save after a refusing [load] writes the refused block back: one
   more [append] leaves it in chain.dag, and [verify] still names it. A
   store with nothing refused saves its file byte for byte. *)
let save_keeps_refused_block () =
  let a = init "save-keeps-refused" in
  let dir = a.Node_store.dir in
  append_values a [ "one"; "two" ];
  let before = read_chain dir in
  ignore (Result.get_ok (Node_store.save (Result.get_ok (Node_store.load ~dir))));
  check_b "nothing refused: identical bytes" true (String.equal before (read_chain dir));
  let damaged = damage_last_block dir in
  let out, err, status = run_cli [ "append"; "--dir"; dir; "--value"; "three" ] in
  check_b ("append: exit 0: " ^ out ^ err) true (status = Unix.WEXITED 0);
  let stored = stored_hashes (read_chain dir) in
  check_b "chain.dag keeps the refused block" true (V.Hash_id.Set.mem damaged stored);
  check_i "beside the three resident ones" 4 (V.Hash_id.Set.cardinal stored);
  let loaded = Result.get_ok (Node_store.load ~dir) in
  check_i "the replica leaves it out" 3 (V.Dag.cardinal (V.Node.dag loaded.Node_store.node));
  let _, err, status = run_cli [ "verify"; "--dir"; dir ] in
  check_b "verify: exit 1" true (status = Unix.WEXITED 1);
  check_b ("names the block: " ^ err) true (contains err (V.Hash_id.short damaged))

(* [enroll] journals its enrolment block [created] on the CA, and seeds
   the member by a pull that journals it [delivered]: the two journals
   agree that both replicas hold the same blocks. *)
let enroll_journals () =
  let ca = init "enroll-journal-ca" in
  let bob = member ca "enroll-journal-bob" in
  let dirs = [ "--dir"; ca.Node_store.dir; "--dir"; bob.Node_store.dir ] in
  let out, _, status = run_cli ("health" :: dirs) in
  check_b "health: exit 0" true (status = Unix.WEXITED 0);
  check_b ("health: " ^ out) true (contains out "converged yes");
  let enrolment =
    match
      List.filter
        (fun b -> not (V.Block.is_genesis b))
        (V.Dag.blocks (V.Node.dag bob.Node_store.node))
    with
    | [ b ] -> b
    | _ -> Alcotest.fail "bob should hold the genesis and the enrolment"
  in
  let out, _, status = run_cli ("trace" :: V.Hash_id.to_hex enrolment.V.Block.hash :: dirs) in
  check_b "trace: exit 0" true (status = Unix.WEXITED 0);
  check_b ("created on the CA: " ^ out) true
    (contains out ("created   node=" ^ Node_store.node_name ca));
  check_b ("delivered on bob: " ^ out) true
    (contains out ("delivered node=" ^ Node_store.node_name bob))

(* [rotate] journals the rotation block [created] in the node's journal,
   and the CA's pull of it journals it [delivered]. *)
let rotate_journals () =
  let module Obs = Vegvisir_obs in
  let ca = init "rotate-journal-ca" in
  let bob = member ca "rotate-journal-bob" in
  let bob =
    Result.get_ok
      (Node_store.rotate ~ca_dir:ca.Node_store.dir ~dir:bob.Node_store.dir
         ~seed:"rotate-journal-bob-2" ~height:4 ())
  in
  let rotation =
    match V.Hash_id.Set.elements (V.Dag.frontier (V.Node.dag bob.Node_store.node)) with
    | [ h ] -> h
    | _ -> Alcotest.fail "one rotation block on bob's frontier"
  in
  let has dir phase = List.exists (V.Hash_id.equal rotation) (journaled dir phase) in
  check_b "created in the node's journal" true (has bob.Node_store.dir Obs.Event.Created);
  check_b "delivered in the CA's journal" true (has ca.Node_store.dir Obs.Event.Delivered)

(* [vegvisir-cli trace] over hand-written journals. *)

let hex_a = "aaaa1111" ^ String.make 56 '0'
let hex_b = "aaaa2222" ^ String.make 56 '0'
let hex_c = "c0ffee00" ^ String.make 56 '1'

(* Two replicas' journals. Block B first appears before block A, so a
   listing in hash order differs from journal order; a's [sent] and b's
   [received] tie at t=2, so their order pins the stable merge; one line
   is not an event and is skipped on load. *)
let trace_journals () =
  let write name lines =
    let dir = fresh_dir name in
    Sys.mkdir dir 0o700;
    Out_channel.with_open_bin (Filename.concat dir "trace.jsonl") (fun oc ->
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
    dir
  in
  let block t ev node hex extra =
    Printf.sprintf {|{"t":%s,"sub":"block","ev":"%s","node":"%s","block":"%s"%s}|}
      t ev node hex extra
  in
  let a =
    write "trace-a"
      [
        block "1.0" "created" "n-a" hex_a "";
        block "2.0" "sent" "n-a" hex_a {|,"peer":"n-b"|};
        block "5.5" "witnessed" "n-a" hex_a {|,"peer":"w-1"|};
        {|{"t":3.0,"sub":"store","ev":"saved","node":"n-a","blocks":2}|};
        block "0.5" "created" "n-a" hex_b "";
        {|{"flight":{"capacity":2,"recorded":3,"dropped":1}}|};
      ]
  in
  let b =
    write "trace-b"
      [
        block "2.0" "received" "n-b" hex_a {|,"peer":"n-a"|};
        block "2.5" "validated" "n-b" hex_a "";
        block "3.125" "delivered" "n-b" hex_a "";
        block "9.0" "witnessed" "n-b" hex_a {|,"peer":"w-2"|};
        block "4.0" "created" "n-b" hex_c "";
        {|{"t":6.0,"sub":"span","ev":"session.exchange","node":"n-b","trace":"aabbccddeeff0011","span":"1122334455667788","dur_ms":2.5,"parent":"8877665544332211"}|};
      ]
  in
  (a, b)

let vv_trace_timeline () =
  let a, b = trace_journals () in
  let out, err, status = run_cli [ "trace"; "aaaa1"; "--dir"; a; "--dir"; b ] in
  Alcotest.(check string)
    "block A's timeline"
    (String.concat "\n"
       [
         "block " ^ hex_a;
         "         1.0  created   node=n-a";
         "         2.0  sent      node=n-a to n-b";
         "         2.0  received  node=n-b from n-a";
         "         2.5  validated node=n-b";
         "       3.125  delivered node=n-b";
         "         5.5  witnessed node=n-a by w-1";
         "         9.0  witnessed node=n-b by w-2";
         "  propagation latency: 2.125";
         "  first-witness latency: 4.5";
         "";
       ])
    out;
  Alcotest.(check string) "no stderr" "" err;
  check_b "exit 0" true (status = Unix.WEXITED 0);
  (* A block nobody delivered or witnessed prints no latency lines. *)
  let out, _, status = run_cli [ "trace"; "c0f"; "--dir"; a; "--dir"; b ] in
  Alcotest.(check string)
    "block C's timeline"
    ("block " ^ hex_c ^ "\n         4.0  created   node=n-b\n")
    out;
  check_b "exit 0 for C" true (status = Unix.WEXITED 0)

let vv_trace_prefixes () =
  let a, b = trace_journals () in
  let out, err, status = run_cli [ "trace"; "aaaa"; "--dir"; a; "--dir"; b ] in
  Alcotest.(check string)
    "ambiguous prefix lists both, in hash order"
    (Printf.sprintf "prefix aaaa is ambiguous:\n  %s\n  %s\n" hex_a hex_b)
    out;
  Alcotest.(check string) "ambiguous: no stderr" "" err;
  check_b "ambiguous exits 1" true (status = Unix.WEXITED 1);
  let out, err, status = run_cli [ "trace"; "dead"; "--dir"; a; "--dir"; b ] in
  Alcotest.(check string) "unknown: no stdout" "" out;
  Alcotest.(check string)
    "unknown prefix" "error: no trace entries for block dead\n" err;
  check_b "unknown exits 1" true (status = Unix.WEXITED 1)

let vv_trace_chrome () =
  let module Obs = Vegvisir_obs in
  let a, b = trace_journals () in
  let out, err, status =
    run_cli [ "trace"; "--chrome"; "-"; "--dir"; a; "--dir"; b ]
  in
  let events =
    List.concat_map (fun dir -> Node_store.load_trace ~dir) [ a; b ]
    |> List.stable_sort (fun (x, _) (y, _) -> Float.compare x y)
  in
  Alcotest.(check string)
    "the journals' spans"
    (Obs.Span.chrome_trace (Obs.Span.of_events events))
    out;
  Alcotest.(check string) "no stderr" "" err;
  check_b "exit 0" true (status = Unix.WEXITED 0)

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
      let _, err, status =
        run_cli
          [ "sync"; "--dir"; dir; "--live"; Printf.sprintf "127.0.0.1:%d" pport;
            "--connect-timeout"; "10" ]
      in
      if status <> Unix.WEXITED 0 then
        Alcotest.failf "catch-up pull from %s failed: %s" dir err)
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

(* A peer that announces a maximal frame, sends 16 bytes and hangs up
   fails its session mid-frame, and no loop iteration allocates anything
   like the announced length: the session's payload buffer grows only
   with the bytes that actually arrive. The bound is per iteration, so
   it does not depend on how many iterations a loaded host needs before
   the loop sees the truncated frame ("framing" checks the reader's
   own allocation to the chunk). *)
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
  let last = ref (Gc.allocated_bytes ()) and worst = ref 0. in
  let r =
    Event_loop.run loop ~until:(fun st ->
        let now = Gc.allocated_bytes () in
        worst := Float.max !worst (now -. !last);
        last := now;
        st.Event_loop.failed >= 1)
  in
  Event_loop.shutdown loop;
  check_b "loop ran" true (Result.is_ok r);
  (match Event_loop.outcomes loop with
  | [ (_, { Event_loop.error = Some e; _ }) ] ->
    check_b ("failed mid-frame: " ^ e) true (contains e "mid-frame")
  | _ -> Alcotest.fail "expected exactly one failed session");
  check_b
    (Printf.sprintf "allocated at most %.1f KiB in one iteration" (!worst /. 1024.))
    true (!worst < 1048576.)

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
  Framing.encode (Buffer.contents b)

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
      Framing.encode "";
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
  let request n =
    let filler i = V.Hash_id.of_raw_exn (Printf.sprintf "%032d" i) in
    framed (V.Reconcile.Blocks_request { hashes = List.init n filler @ [ known ] })
  in
  (* Requests of 3000, 10 and 6000 unknown hashes, each sent once the
     one before it is answered. *)
  let client = raw_client port [] in
  let deadline = Unix.gettimeofday () +. 20. in
  let ran =
    List.for_all
      (fun n ->
        let want = List.length (received client) + 1 in
        client.out <- client.out ^ request n;
        Result.is_ok
          (Event_loop.run loop ~until:(fun _ ->
               pump client;
               List.length (received client) >= want
               || Unix.gettimeofday () > deadline)))
      [ 3000; 10; 6000 ]
  in
  Event_loop.shutdown loop;
  Unix.close client.fd;
  let carries_known = function
    | Some (V.Reconcile.Blocks_reply { blocks = [ b ] }) -> V.Hash_id.equal b.V.Block.hash known
    | Some _ | None -> false
  in
  check_b "loop ran" true ran;
  check_b "every reply carried the known block" true
    (List.length (received client) = 3 && List.for_all carries_known (received client));
  check_b "three requests served" true ((Event_loop.stats loop).Event_loop.served = 3)

(* A buffered block that a later session's delivery drains is journaled
   too. The loop's node buffers C, placed while its parent P was absent;
   a replica that holds P but not C (C was signed by a second handle on
   its directory, never saved) runs one [sync --live] against the loop,
   whose pull-back delivers P alone. *)
let delivery_journals_drained () =
  let module Obs = Vegvisir_obs in
  let ca = init "drain-ca" in
  let rep = member ca "drain-rep" in
  let p = Result.get_ok (Node_store.append rep ~crdt:"log" ~op:"add" [ Value.String "p" ]) in
  let unsaved = Result.get_ok (Node_store.load ~dir:rep.Node_store.dir) in
  let c = Result.get_ok (V.Node.append unsaved.Node_store.node ~now:(wall_ts ()) [ log_add "c" ]) in
  let store = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  (match V.Node.receive store.Node_store.node ~now:(wall_ts ()) c with
  | V.Node.Buffered _ -> ()
  | r -> Alcotest.failf "C not buffered: %a" V.Node.pp_receive_result r);
  let loop = Event_loop.create ~store () in
  let port = Result.get_ok (Event_loop.listen_peers loop ~port:0 ()) in
  let client =
    start ~report:false cli_exe
      [ "sync"; "--dir"; rep.Node_store.dir; "--live"; Printf.sprintf "127.0.0.1:%d" port ]
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let r =
    Event_loop.run loop ~until:(fun st ->
        st.Event_loop.completed + st.Event_loop.failed > 0
        || Unix.gettimeofday () > deadline)
  in
  Event_loop.shutdown loop;
  let status = reap client in
  check_b "loop ran" true (Result.is_ok r);
  check_b "client exited 0" true (status = Unix.WEXITED 0);
  check_i "one session completed" 1 (Event_loop.stats loop).Event_loop.completed;
  check_i "the pull-back delivered P alone" 1 (Event_loop.stats loop).Event_loop.delivered;
  let delivered = journaled ca.Node_store.dir Obs.Event.Delivered in
  List.iter
    (fun (name, (b : V.Block.t)) ->
      check_i (name ^ " delivered once") 1
        (List.length (List.filter (V.Hash_id.equal b.V.Block.hash) delivered)))
    [ ("P", p); ("C", c) ]

(* Every session of one loop pulls under its own generation: two
   [sync --live] clients run against a loop that samples every session,
   and its two pull-backs announce distinct traces under distinct [gen]
   values. *)
let sessions_trace_apart () =
  let module Obs = Vegvisir_obs in
  let ca = init "gen-ca" in
  let rep = member ca "gen-rep" in
  let store = Result.get_ok (Node_store.load ~dir:ca.Node_store.dir) in
  let loop =
    Event_loop.create ~store
      ~config:{ Event_loop.default_config with Event_loop.trace_sample = 1.0 }
      ()
  in
  let port = Result.get_ok (Event_loop.listen_peers loop ~port:0 ()) in
  let deadline = Unix.gettimeofday () +. 20. in
  let exchange n =
    let client =
      start ~report:false cli_exe
        [ "sync"; "--dir"; rep.Node_store.dir; "--live"; Printf.sprintf "127.0.0.1:%d" port ]
    in
    let r =
      Event_loop.run loop ~until:(fun st ->
          st.Event_loop.completed + st.Event_loop.failed >= n
          || Unix.gettimeofday () > deadline)
    in
    Result.is_ok r && reap client = Unix.WEXITED 0
  in
  let ran = exchange 1 && exchange 2 in
  Event_loop.shutdown loop;
  check_b "two exchanges ran" true ran;
  check_i "both completed" 2 (Event_loop.stats loop).Event_loop.completed;
  let journal = Node_store.load_trace ~dir:ca.Node_store.dir in
  let announced =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Obs.Event.Span { name = "session.announce"; trace; _ } -> Some trace
        | _ -> None)
      journal
  and gens =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Obs.Event.Session_started { generation; _ } -> Some generation
        | _ -> None)
      journal
  in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  check_i "two traces announced" 2 (List.length announced);
  check_b "with distinct trace ids" true (distinct announced);
  check_i "two pulls started" 2 (List.length gens);
  check_b "under distinct gen values" true (distinct gens)

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
  (* A loop with only the /metrics listener, as serve --metrics runs it
     after its exchange. *)
  let loop = Event_loop.create ~store:(init "metrics") () in
  let port = Result.get_ok (Event_loop.listen_metrics loop ~port:0 ()) in
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

(* [serve --metrics 0] prints the port it bound and, on SIGINT, how many
   scrapes it answered: a 404 is not a scrape. *)
let serve_metrics () =
  let ca = init "serve-metrics-ca" in
  let bob = member ca "serve-metrics-bob" in
  let server =
    start cli_exe
      [ "serve"; "--dir"; bob.Node_store.dir; "--port"; "0"; "--metrics"; "0";
        "--accept-timeout"; "10" ]
  in
  let port = port_after server.line " on 127.0.0.1:" in
  let _, err, status =
    run_cli [ "sync"; "--dir"; ca.Node_store.dir; "--live"; Printf.sprintf "127.0.0.1:%d" port ]
  in
  check_b ("sync exited 0: " ^ err) true (status = Unix.WEXITED 0);
  let rec metrics_line () =
    match read_line_fd server.out with
    | "" -> Alcotest.fail "serve ended before its metrics line"
    | l -> if contains l "metrics on" then l else metrics_line ()
  in
  let mport = port_after (metrics_line ()) "http://127.0.0.1:" in
  let answers =
    if mport > 0 then [ http_get mport "/metrics"; http_get mport "/nope" ] else []
  in
  Unix.kill server.pid Sys.sigint;
  let rec last prev = match read_line_fd server.out with "" -> prev | l -> last l in
  let final = last "" in
  check_b "serve exited 0" true (reap server = Unix.WEXITED 0);
  check_b "a bound metrics port" true (mport > 0);
  (match answers with
  | [ metrics; nope ] ->
    check_b "GET /metrics answered" true (contains metrics "200 OK");
    check_b "GET /nope is a 404" true (contains nope "404 Not Found")
  | _ -> Alcotest.fail "no scrape was made");
  Alcotest.(check string) "last line" "answered 1 scrape(s)" final

(* {1 The socket-free modules beneath the loop} *)

(* [io] driven by a cycling script of (size, would_block) steps: each
   call moves at most the step's size (no limit when the script is
   empty), and a [true] step first answers `Would_block once. *)
let scripted script io =
  let steps = ref script and blocked = ref false in
  fun buf ~pos ~len ->
    let size, block =
      match !steps with
      | [] -> (max_int, false)
      | step :: rest ->
        steps := (match rest with [] -> script | _ :: _ -> rest);
        step
    in
    if block && not !blocked then begin
      blocked := true;
      Ok `Would_block
    end
    else begin
      blocked := false;
      io buf ~pos ~len:(min len size)
    end

(* A scripted read function over [stream] for Framing, `Eof at its end. *)
let scripted_read stream script =
  let at = ref 0 in
  scripted script (fun buf ~pos ~len ->
      let n = min len (String.length stream - !at) in
      if n = 0 then Ok `Eof
      else begin
        Bytes.blit_string stream !at buf pos n;
        at := !at + n;
        Ok (`Read n)
      end)

(* Drive [Framing.read_frame] to `Eof, retrying after every
   `Would_block as the loop does at the next readiness; returns the
   frames and the mid-frame verdict. *)
let read_all fr read =
  let rec go acc guard =
    if guard = 0 then Alcotest.fail "reader made no progress"
    else
      match Framing.read_frame fr ~read with
      | Ok (`Frame f) -> go (f :: acc) (guard - 1)
      | Ok `Would_block -> go acc (guard - 1)
      | Ok `Eof -> (List.rev acc, Framing.mid_frame fr)
      | Error e -> Alcotest.failf "read failed: %s" e
  in
  go [] 1_000_000

(* Frames queued, drained by arbitrary partial writes, then cut at any
   byte and read back through arbitrary splits: the writes keep the
   queue's order, and every split yields the frames wholly before the
   cut and says mid-frame exactly when the cut is inside one. *)
let framing_split_qcheck =
  let gen =
    QCheck.Gen.(
      let payload =
        oneof
          [ return ""; string_size (int_range 1 16); string_size (int_range 4000 9000) ]
      in
      quad (list_size (int_range 0 6) payload)
        (list_size (int_range 0 8) (pair (int_range 1 5000) bool))
        (list_size (int_range 0 8) (pair (int_range 1 5000) bool))
        (float_range 0. 1.))
  in
  let print (payloads, reads, writes, cut) =
    let steps l =
      String.concat ";"
        (List.map (fun (n, b) -> Printf.sprintf "%d%s" n (if b then "/wb" else "")) l)
    in
    Printf.sprintf "payload lengths [%s], reads [%s], writes [%s], cut %.3f"
      (String.concat ";" (List.map (fun p -> string_of_int (String.length p)) payloads))
      (steps reads) (steps writes) cut
  in
  QCheck.Test.make ~count:300 ~name:"any split yields the same frames and verdict"
    (QCheck.make ~print gen)
    (fun (payloads, reads, writes, cut) ->
      let out = Framing.create () in
      List.iter (Framing.enqueue out) payloads;
      let wire = Buffer.create 1024 in
      let write =
        scripted writes (fun buf ~pos ~len ->
            Buffer.add_subbytes wire buf pos len;
            Ok (`Wrote len))
      in
      let rec drain guard =
        if Framing.has_output out && guard > 0 then begin
          (match Framing.flush out ~write with
          | Ok () -> ()
          | Error e -> Alcotest.failf "flush failed: %s" e);
          drain (guard - 1)
        end
      in
      drain 1_000_000;
      let stream = Buffer.contents wire in
      let written_in_order =
        String.equal stream (String.concat "" (List.map Framing.encode payloads))
        && Framing.queued_bytes out = 0
      in
      (* Frame boundaries of the stream, and the cut. *)
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) p ->
                  let e = at + Framing.header_bytes + String.length p in
                  (e, e :: acc))
                (0, []) payloads))
      in
      let cut_at = int_of_float (cut *. float_of_int (String.length stream)) in
      let whole = List.filteri (fun i _ -> List.nth ends i <= cut_at) payloads in
      let mid = cut_at > 0 && not (List.mem cut_at ends) in
      let frames, verdict =
        read_all (Framing.create ()) (scripted_read (String.sub stream 0 cut_at) reads)
      in
      written_in_order && frames = whole && verdict = mid)

(* The hostile header, at the reader itself: a header announcing
   Wire.max_frame, 16 payload bytes, then EOF. The reader must hold the
   partial frame in one small chunk, not a buffer of the announced
   length. *)
let framing_hostile_header () =
  let bytes = Bytes.make (Framing.header_bytes + 16) 'x' in
  Bytes.set_int32_be bytes 0 (Int32.of_int V.Wire.max_frame);
  let read = scripted_read (Bytes.to_string bytes) [] in
  let fr = Framing.create () in
  let before = Gc.allocated_bytes () in
  let r1 = Framing.read_frame fr ~read in
  let r2 = Framing.read_frame fr ~read in
  let allocated = Gc.allocated_bytes () -. before in
  check_b "EOF on both reads" true (r1 = Ok `Eof && r2 = Ok `Eof);
  check_b "mid-frame" true (Framing.mid_frame fr);
  check_b
    (Printf.sprintf "allocated %.0f bytes (at most four 4 KiB chunks)" allocated)
    true
    (allocated <= 4. *. 4096.)

(* Whole heads and heads dribbled one byte at a time get the same
   verdict, on the byte that completes them; only 200s are scrapes, and
   what the server answers is what Http_probe's parse reads. *)
let http_table () =
  let head line = line ^ "\r\nHost: 127.0.0.1\r\n\r\n" in
  let cases =
    [
      (head "GET /metrics HTTP/1.1", Http.Scrape Http.Metrics);
      (head "GET /metrics?x HTTP/1.1", Http.Scrape Http.Metrics);
      (head "GET /health HTTP/1.1", Http.Scrape Http.Health);
      (head "GET /health?x HTTP/1.1", Http.Scrape Http.Health);
      (head "GET /debug/spans HTTP/1.1", Http.Scrape Http.Spans);
      (head "GET /debug/flight HTTP/1.1", Http.Scrape Http.Flight);
      (head "GET /debug/registry HTTP/1.1", Http.Scrape Http.Registry);
      (head "GET /debug/spans?x HTTP/1.1", Http.Not_found);
      (head "GET /nope HTTP/1.1", Http.Not_found);
      (head "GET /metricsx HTTP/1.1", Http.Not_found);
      (head "POST /metrics HTTP/1.1", Http.Not_found);
      (head "GET /metrics", Http.Bad_request);
      (head "GET  /metrics HTTP/1.1", Http.Bad_request);
      ("\r\n\r\n", Http.Bad_request);
      (String.make (Http.max_request_bytes + 1) 'a', Http.Bad_request);
    ]
  in
  let name raw = String.escaped (String.sub raw 0 (min 32 (String.length raw))) in
  let feed_all raw =
    Http.feed (Http.head ()) (Bytes.of_string raw) ~pos:0 ~len:(String.length raw)
  in
  List.iter
    (fun (raw, want) ->
      check_b ("whole " ^ name raw) true (feed_all raw = Some want);
      let h = Http.head () in
      let verdicts =
        List.init (String.length raw) (fun i ->
            Http.feed h (Bytes.of_string raw) ~pos:i ~len:1)
      in
      check_b ("dribbled " ^ name raw) true
        (List.filteri (fun i _ -> i < String.length raw - 1) verdicts
         |> List.for_all Option.is_none
        && List.nth verdicts (String.length raw - 1) = Some want))
    cases;
  (* A head split just before its blank line's last byte is still
     incomplete. *)
  let raw = head "GET /metrics HTTP/1.1" in
  let h = Http.head () in
  check_b "no verdict before the blank line" true
    (Http.feed h (Bytes.of_string raw) ~pos:0 ~len:(String.length raw - 1) = None);
  check_b "verdict on its last byte" true
    (Http.feed h (Bytes.of_string raw) ~pos:(String.length raw - 1) ~len:1
    = Some (Http.Scrape Http.Metrics));
  (* Status lines: only scrapes are 200s. *)
  let status v =
    let r = Http.answer v ~body:(fun _ -> "b") in
    String.sub r 0 (String.index r '\r')
  in
  List.iter
    (fun (v, want) -> Alcotest.(check string) want want (status v))
    [
      (Http.Scrape Http.Health, "HTTP/1.1 200 OK");
      (Http.Not_found, "HTTP/1.1 404 Not Found");
      (Http.Bad_request, "HTTP/1.1 400 Bad Request");
    ];
  (* Round trip: the probe's request routes, and the server's answer
     parses back to its body or its status line. *)
  let req = Http.request ~host:"127.0.0.1" ~path:"/health?x" in
  check_b "the probe's request routes to /health" true
    (feed_all req = Some (Http.Scrape Http.Health));
  let body = "{\"node\":\"n\"}\r\n\r\nafter a blank line" in
  let parsed v = Http.parse_response (Http.answer v ~body:(fun _ -> body)) in
  check_b "a 200 parses back to its body" true (parsed (Http.Scrape Http.Health) = Ok body);
  check_b "a 404 parses to its status line" true
    (parsed Http.Not_found = Error "HTTP error: HTTP/1.1 404 Not Found")

(* The dial policy alone: it follows the priority it is given, skips
   busy peers, backs a failing peer off 2, 4, ... 64 periods and caps
   there, forgets the failures on one success, and keeps the last 64
   dials. *)
let anti_entropy_policy () =
  let peers = [ ("10.0.0.1", 1); ("10.0.0.2", 2); ("10.0.0.3", 3) ] in
  let every_ms = 10. in
  let ae = Anti_entropy.create ~every_ms ~dial_timeout_s:5. ~peers in
  let a, b, c = ("10.0.0.1:1", "10.0.0.2:2", "10.0.0.3:3") in
  check_b "labels" true (Anti_entropy.labels ae = [ a; b; c ]);
  let chosen = ref [] in
  let choose ?(busy = fun _ -> false) ?(priority = Fun.id) now_ms =
    match Anti_entropy.choose ae ~now_ms ~priority ~busy with
    | Some d ->
      chosen := d.Anti_entropy.label :: !chosen;
      Some d.Anti_entropy.label
    | None -> None
  in
  let check_dial msg want got = Alcotest.(check (option string)) msg want got in
  check_dial "priority order" (Some c) (choose ~priority:List.rev 0.);
  check_dial "priority order" (Some a) (choose 0.);
  check_dial "a busy peer is skipped" (Some b) (choose ~busy:(String.equal a) 0.);
  check_dial "all busy" None (choose ~busy:(fun _ -> true) 0.);
  let all_but_a l = not (String.equal a l) in
  List.iter
    (fun (k, periods) ->
      let t0 = 1000. *. float_of_int k in
      Anti_entropy.failed ae ~now_ms:t0 a;
      Alcotest.(check (option int))
        "consecutive failures" (Some k) (Anti_entropy.failures ae a);
      let until = t0 +. (every_ms *. float_of_int periods) in
      check_dial (Printf.sprintf "failure %d: backed off" k) None
        (choose ~busy:all_but_a (Float.pred until));
      check_dial
        (Printf.sprintf "failure %d: eligible after %d periods" k periods)
        (Some a) (choose ~busy:all_but_a until))
    [ (1, 2); (2, 4); (3, 8); (4, 16); (5, 32); (6, 64); (7, 64); (8, 64) ];
  Anti_entropy.connected ae a;
  Alcotest.(check (option int)) "one success resets" (Some 0) (Anti_entropy.failures ae a);
  check_dial "no backoff after a success" (Some a) (choose ~busy:all_but_a 8000.);
  Anti_entropy.failed ae ~now_ms:0. "10.0.0.9:9";
  Alcotest.(check (option int)) "an unknown label is ignored" None
    (Anti_entropy.failures ae "10.0.0.9:9");
  for i = 1 to 70 do
    ignore (choose ~priority:(if i mod 2 = 0 then Fun.id else List.rev) 9000.)
  done;
  let recent = List.filteri (fun i _ -> i < 64) !chosen in
  check_b "the log keeps the last 64 dials, oldest first" true
    (Anti_entropy.dials ae = List.rev recent)

(* The port a bound socket got. *)
let sock_port fd =
  match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> 0

(* A loopback listener with backlog 0 and one connection queued: the
   kernel drops every further SYN, so a dial to it can only time out.
   Returns the listener and the queued client, to close afterwards, and
   the port. *)
let full_backlog () =
  let full = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind full (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen full 0;
  let port = sock_port full in
  let queued = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock queued;
  (try Unix.connect queued (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
  ([ full; queued ], port)

(* A dial to a peer whose accept queue is full must not stall the loop:
   the listener below has backlog 0 and one connection queued, so
   loopback drops every further SYN and the loop's dial can only time
   out. A scraper on another domain asks for /health while that dial is
   pending; it must be answered well inside the dial timeout, and the
   timed-out dial counts once. *)
let dial_does_not_wedge () =
  let socks, fport = full_backlog () in
  let loop = Event_loop.create ~store:(init "wedge") () in
  let mport = Result.get_ok (Event_loop.listen_metrics loop ~port:0 ()) in
  Event_loop.set_anti_entropy ~dial_timeout_s:3. loop ~every_ms:50.
    ~peers:[ ("127.0.0.1", fport) ];
  let scraped = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        let t0 = Unix.gettimeofday () in
        let r =
          Http_probe.get ~timeout_s:10. ~host:"127.0.0.1" ~port:mport ~path:"/health" ()
        in
        let took = Unix.gettimeofday () -. t0 in
        Atomic.set scraped true;
        (r, took))
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let ran =
    Event_loop.run loop ~until:(fun st ->
        (Atomic.get scraped && st.Event_loop.dial_failures >= 1)
        || Unix.gettimeofday () > deadline)
  in
  let health, took = Domain.join scraper in
  let st = Event_loop.stats loop in
  Event_loop.shutdown loop;
  List.iter Unix.close socks;
  check_b "loop ran" true (Result.is_ok ran);
  (match health with
  | Ok body ->
    check_b "the pending dial is on record" true
      (contains body (Printf.sprintf "\"dials\":[\"127.0.0.1:%d\"]" fport))
  | Error e -> Alcotest.failf "scrape failed: %s" e);
  check_b
    (Printf.sprintf "scrape answered in %.3f s (dial timeout 3 s)" took)
    true (took < 1.);
  check_i "one dial failure" 1 st.Event_loop.dial_failures;
  check_i "not a failed session" 0 st.Event_loop.failed

(* Every conn sends with Nagle's algorithm off. Read TCP_NODELAY back on
   both ends of a loopback pair made by the non-blocking calls the event
   loop uses, and of a pair made by the blocking ones. On Unix a conn is
   the descriptor [conn_id] names. No timing is asserted. *)
external fd_of_int : int -> Unix.file_descr = "%identity"

let nodelay_on_every_conn () =
  let get what = function Ok v -> v | Error e -> Alcotest.failf "%s: %s" what e in
  let nodelay c = Unix.getsockopt (fd_of_int (Unix_compat.conn_id c)) Unix.TCP_NODELAY in
  let l = get "listen" (Unix_compat.listen ~port:0 ()) in
  let port = Unix_compat.bound_port l in
  let check_pair how dialed accepted =
    check_b (how ^ ": the dialed end sets TCP_NODELAY") true (nodelay dialed);
    check_b (how ^ ": the accepted end sets TCP_NODELAY") true (nodelay accepted);
    Unix_compat.close_conn dialed;
    Unix_compat.close_conn accepted
  in
  let dialed = get "connect_start" (Unix_compat.connect_start ~host:"127.0.0.1" ~port ()) in
  let rec accept_nb () =
    match Unix_compat.accept_nb l with
    | Ok (`Conn c) -> c
    | Ok `Would_block ->
      get "await"
        (Unix_compat.await ~deadline:(Unix_compat.now () +. 10.) ~timed_out:"no connection"
           ~listeners:[ l ] ~read:[] ~write:[] ());
      accept_nb ()
    | Error e -> Alcotest.failf "accept_nb: %s" e
  in
  check_pair "connect_start/accept_nb" dialed (accept_nb ());
  let dialed = get "connect" (Unix_compat.connect ~timeout_s:10. ~host:"127.0.0.1" ~port ()) in
  check_pair "connect/accept" dialed (get "accept" (Unix_compat.accept ~timeout_s:10. l));
  Unix_compat.close_listener l

(* [sync --live] reports a connect that fails, refused or timed out,
   with the connect error on stderr and exit 1. *)
let sync_live_connect_errors () =
  let store = init "connect-errors" in
  let sync port extra =
    let peer = Printf.sprintf "127.0.0.1:%d" port in
    run_cli ([ "sync"; "--dir"; store.Node_store.dir; "--live"; peer ] @ extra)
  in
  let closed =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port = sock_port fd in
    Unix.close fd;
    port
  in
  let _, err, status = sync closed [] in
  check_b "refused: exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check string) "refused: stderr" "error: connect: Connection refused\n" err;
  let socks, fport = full_backlog () in
  let _, err, status = sync fport [ "--connect-timeout"; "1" ] in
  List.iter Unix.close socks;
  check_b "timed out: exit 1" true (status = Unix.WEXITED 1);
  Alcotest.(check string) "timed out: stderr" "error: connect: Connection timed out\n" err

(* A child process started by a test runs one role and exits, before
   Alcotest ever sees its arguments. *)
let child_main = function
  | [ "soak-client"; dir; port; n ] ->
    soak_client dir (int_of_string port) (int_of_string n)
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
          Alcotest.test_case "key position per handle" `Quick key_position_per_handle;
          Alcotest.test_case "rotate refuses its own CA" `Quick rotate_own_ca_refused;
          Alcotest.test_case "corruption" `Quick corruption_detected;
          Alcotest.test_case "live socket sync" `Quick live_sync;
          Alcotest.test_case "serve --accept-timeout" `Quick serve_accept_timeout;
          Alcotest.test_case "batch ancestry recovery" `Quick recover_ancestry;
          Alcotest.test_case "a reload keeps a block stamped ahead" `Quick
            reload_keeps_block_stamped_ahead;
          Alcotest.test_case "sync --from journals what it admits" `Quick
            sync_from_rejected;
          Alcotest.test_case "sync --from reports a failed save" `Quick
            sync_from_failed_save;
          Alcotest.test_case "sync --live reports a failed connect" `Quick
            sync_live_connect_errors;
          Alcotest.test_case "verify names a dropped block" `Quick
            verify_reports_dropped_block;
          Alcotest.test_case "a save keeps a refused block" `Quick
            save_keeps_refused_block;
          Alcotest.test_case "enroll journals the enrolment" `Quick enroll_journals;
          Alcotest.test_case "rotate journals the rotation" `Quick rotate_journals;
        ] );
      ( "event-loop",
        [
          Alcotest.test_case "hostile frame header" `Quick hostile_frame_header;
          Alcotest.test_case "hostile requests" `Quick hostile_requests;
          Alcotest.test_case "multi-chunk frames" `Quick multi_chunk_frames;
          Alcotest.test_case "a delivery journals what it drains" `Quick
            delivery_journals_drained;
          Alcotest.test_case "a dial does not wedge the loop" `Quick dial_does_not_wedge;
          Alcotest.test_case "every conn sets TCP_NODELAY" `Quick nodelay_on_every_conn;
          Alcotest.test_case "sessions trace apart" `Quick sessions_trace_apart;
        ] );
      ( "framing",
        [
          QCheck_alcotest.to_alcotest framing_split_qcheck;
          Alcotest.test_case "hostile header costs one chunk" `Quick
            framing_hostile_header;
        ] );
      ( "http",
        [
          Alcotest.test_case "routes, whole and dribbled, and the probe's parse" `Quick
            http_table;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "priority, skips, backoff and the dial log" `Quick
            anti_entropy_policy;
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
        [
          Alcotest.test_case "GET /metrics over loopback" `Quick metrics_endpoint;
          Alcotest.test_case "serve --metrics port and scrapes" `Quick serve_metrics;
        ] );
      ( "vv-trace",
        [
          Alcotest.test_case "timeline golden" `Quick vv_trace_timeline;
          Alcotest.test_case "ambiguous and unknown prefix" `Quick
            vv_trace_prefixes;
          Alcotest.test_case "chrome export to stdout" `Quick vv_trace_chrome;
        ] );
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
