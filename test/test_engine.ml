(* Unit and property tests for the sans-IO peer engine: scripted-pipe
   reconciliation against the reference Reconcile.sync_dags, adversarial
   transports (lost / duplicated / reordered replies), retry exhaustion,
   session timeouts and stale generations, the Silent / Withholding
   policies, the typed timer-key codec, and trace-replay equality between
   the Simnet adapter and a scripted driver fed the same inputs. *)

open Vegvisir
module Peer_engine = Vegvisir_engine.Peer_engine
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let ts ms = Timestamp.of_ms (Int64.of_int ms)

(* ------------------------------------------------------------------ *)
(* Fixtures: an owner (CA) and two members with oracle keys.            *)

let owner_signer = Signer.oracle ~signature_size:64 ~id:"owner" ()
let owner_cert = Certificate.self_signed ~signer:owner_signer ~role:"ca"
let alice_signer = Signer.oracle ~signature_size:64 ~id:"alice" ()

let alice_cert =
  Certificate.issue ~ca:owner_cert ~ca_signer:owner_signer ~subject:alice_signer
    ~role:"member"

let bob_signer = Signer.oracle ~signature_size:64 ~id:"bob" ()

let bob_cert =
  Certificate.issue ~ca:owner_cert ~ca_signer:owner_signer ~subject:bob_signer
    ~role:"member"

let log_spec = Schema.spec Schema.Gset Value.T_string

let genesis =
  Node.genesis_block ~signer:owner_signer ~cert:owner_cert ~timestamp:(ts 0)
    ~extra:
      [
        Transaction.create_crdt ~name:"log" log_spec;
        Transaction.add_user alice_cert;
        Transaction.add_user bob_cert;
      ]
    ()

let fresh_node signer cert =
  let n = Node.create ~signer ~cert () in
  (match Node.receive n ~now:(ts 1) genesis with
  | Node.Accepted -> ()
  | r -> Alcotest.failf "genesis not accepted: %a" Node.pp_receive_result r);
  n

let add_tx entry = Transaction.make ~crdt:"log" ~op:"add" [ Value.String entry ]

let append node ~ms entry =
  match Node.append node ~now:(ts ms) [ add_tx entry ] with
  | Ok b -> b
  | Error e -> Alcotest.failf "append %s: %a" entry Node.pp_append_error e

(* The divergent pair every reconciliation test pulls between: [behind]
   holds only the genesis; [ahead] (bob's replica) additionally holds one
   block of bob's own and two of alice's. *)
let ahead_node, ahead_own_block, ahead_foreign_blocks =
  let alice = fresh_node alice_signer alice_cert in
  let bob = fresh_node bob_signer bob_cert in
  let b1 = append bob ~ms:50 "from-bob" in
  let a1 = append alice ~ms:100 "from-alice-1" in
  (match Node.receive bob ~now:(ts 150) a1 with
  | Node.Accepted -> ()
  | r -> Alcotest.failf "a1 not accepted: %a" Node.pp_receive_result r);
  let a2 = append alice ~ms:200 "from-alice-2" in
  (match Node.receive bob ~now:(ts 250) a2 with
  | Node.Accepted -> ()
  | r -> Alcotest.failf "a2 not accepted: %a" Node.pp_receive_result r);
  (bob, b1, [ a1; a2 ])

let behind_node = fresh_node owner_signer owner_cert

let encode_msg m =
  let b = Buffer.create 256 in
  Reconcile.encode_message b m;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scripted transport: two engines joined by an in-memory pipe          *)

type outcome = {
  dag : Dag.t;  (** the puller's final replica *)
  stats : Reconcile.stats option;
  aborted : Peer_engine.abort_reason option;
  events : Peer_engine.event list;  (** in emission order *)
}

let sends effs =
  List.filter_map
    (function
      | Peer_engine.Send { bytes; _ } -> Some bytes
      | Peer_engine.Set_timer _ | Peer_engine.Deliver _
      | Peer_engine.Session_done _ | Peer_engine.Trace _ ->
        None)
    effs

(* One pull session from a fresh engine on [a_node]'s replica against a
   fresh responder engine on [b_node]'s. [mangle] sees each round's reply
   frames and returns what the transport actually delivers — identity by
   default; tests drop, duplicate, and reorder through it. A quiet round
   advances the clock past the staleness threshold and runs the engine's
   retransmit/abandon housekeeping, so lost frames exercise the real
   retry machinery. *)
let scripted_pull ?(mode = Reconcile.Naive) ?(mangle = fun ~round:_ frames -> frames)
    ?(b_policy = Peer_engine.Honest) ~a_node ~b_node () =
  let a_dag = ref (Node.dag a_node) in
  let b_dag = Node.dag b_node in
  let a =
    ref
      (Peer_engine.create
         ~config:{ Peer_engine.Config.default with Peer_engine.Config.mode }
         ~user_id:(Node.user_id a_node) ~dag:!a_dag ())
  in
  let b =
    ref
      (Peer_engine.create
         ~config:
           {
             Peer_engine.Config.default with
             Peer_engine.Config.mode;
             policy = b_policy;
           }
         ~user_id:(Node.user_id b_node) ~dag:b_dag ())
  in
  let now = ref 0. in
  let stats = ref None and aborted = ref None and events = ref [] in
  let step_a input =
    let a', effs = Peer_engine.handle !a ~now:!now ~dag:!a_dag input in
    a := a';
    List.iter
      (fun (e : Peer_engine.effect_) ->
        match e with
        | Peer_engine.Deliver blocks ->
          List.iter
            (fun blk ->
              match Dag.add !a_dag blk with
              | Ok d -> a_dag := d
              | Error _ -> Alcotest.fail "Deliver violated parents-first order")
            blocks
        | Peer_engine.Session_done s -> stats := Some s
        | Peer_engine.Trace ev ->
          events := ev :: !events;
          (match ev with
          | Peer_engine.Session_aborted { reason; _ } -> aborted := Some reason
          | Peer_engine.Session_started _ | Peer_engine.Request_resent _
          | Peer_engine.Session_completed _ | Peer_engine.Request_suppressed _
          | Peer_engine.Reply_ignored _ | Peer_engine.Decode_failed _
          | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
          | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_sent _
          | Peer_engine.Trace_context_received _ ->
            ())
        | Peer_engine.Send _ | Peer_engine.Set_timer _ -> ())
      effs;
    sends effs
  in
  let step_b input =
    let b', effs = Peer_engine.handle !b ~now:!now ~dag:b_dag input in
    b := b';
    sends effs
  in
  let rec loop round requests =
    if Option.is_some !stats || Option.is_some !aborted then ()
    else if round > 60 then Alcotest.fail "scripted session did not terminate"
    else begin
      let replies =
        List.concat_map
          (fun r -> step_b (Peer_engine.Message_received { from = 0; bytes = r }))
          requests
      in
      let frames = mangle ~round replies in
      now := !now +. 250.;
      let next =
        List.concat_map
          (fun f -> step_a (Peer_engine.Message_received { from = 1; bytes = f }))
          frames
      in
      let next =
        if next = [] && Option.is_none !stats && Option.is_none !aborted then begin
          now := !now +. 6_000.;
          step_a (Peer_engine.Tick { peer = None })
        end
        else next
      in
      loop (round + 1) next
    end
  in
  loop 0 (step_a (Peer_engine.Tick { peer = Some 1 }));
  { dag = !a_dag; stats = !stats; aborted = !aborted; events = List.rev !events }

let frontier_eq a b = Hash_id.Set.equal (Dag.frontier a) (Dag.frontier b)

let reference_merge mode =
  fst (Reconcile.sync_dags mode (Node.dag behind_node) (Node.dag ahead_node))

(* ------------------------------------------------------------------ *)
(* Clean transport: engine == Reconcile.sync_dags, in all three modes   *)

let scripted_matches_sync_dags () =
  List.iter
    (fun mode ->
      let o = scripted_pull ~mode ~a_node:behind_node ~b_node:ahead_node () in
      check_b "completed" true (Option.is_some o.stats);
      check_b "merged like sync_dags" true (frontier_eq o.dag (reference_merge mode));
      (* Same protocol core, so the session statistics agree exactly. *)
      let _, ref_stats =
        Reconcile.sync_dags mode (Node.dag behind_node) (Node.dag ahead_node)
      in
      (match o.stats with
      | Some s -> check_b "stats agree" true (Reconcile.stats_equal s ref_stats)
      | None -> ());
      check_b "no spurious abort" true (Option.is_none o.aborted))
    Reconcile.Mode.all

(* ------------------------------------------------------------------ *)
(* Adversarial transports                                               *)

let has_resent events =
  List.exists
    (function
      | Peer_engine.Request_resent _ -> true
      | Peer_engine.Session_started _ | Peer_engine.Session_completed _
      | Peer_engine.Session_aborted _ | Peer_engine.Request_suppressed _
      | Peer_engine.Reply_ignored _ | Peer_engine.Decode_failed _
      | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
      | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_sent _
      | Peer_engine.Trace_context_received _ ->
        false)
    events

let lost_reply_recovers () =
  let mangle ~round frames = if round = 0 then [] else frames in
  let o =
    scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node ()
  in
  check_b "completed after loss" true (Option.is_some o.stats);
  check_b "retransmitted" true (has_resent o.events);
  check_b "still converges" true (frontier_eq o.dag (reference_merge Reconcile.Naive))

let duplicated_replies_ignored () =
  let mangle ~round:_ frames = List.concat_map (fun f -> [ f; f ]) frames in
  let o =
    scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node ()
  in
  check_b "completed" true (Option.is_some o.stats);
  check_b "converged despite duplicates" true
    (frontier_eq o.dag (reference_merge Reconcile.Naive));
  (* The duplicate of the final reply lands after the session closed. *)
  check_b "post-session duplicate traced" true
    (List.exists
       (function
         | Peer_engine.Reply_ignored _ -> true
         | Peer_engine.Session_started _ | Peer_engine.Request_resent _
         | Peer_engine.Session_completed _ | Peer_engine.Session_aborted _
         | Peer_engine.Request_suppressed _ | Peer_engine.Decode_failed _
         | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
         | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_sent _
         | Peer_engine.Trace_context_received _ ->
           false)
       o.events)

let reordered_replies_recover () =
  (* Hold round 0's reply back and deliver it late, after the reply to
     the retransmitted request — newest first. *)
  let stash = ref [] in
  let mangle ~round frames =
    if round = 0 then begin
      stash := frames;
      []
    end
    else begin
      let out = List.rev (!stash @ frames) in
      stash := [];
      out
    end
  in
  let o =
    scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node ()
  in
  check_b "completed" true (Option.is_some o.stats);
  check_b "converged despite reordering" true
    (frontier_eq o.dag (reference_merge Reconcile.Naive))

(* Two mangled frames ride along with every round's replies: bytes
   that do not decode, and a request the responder refuses (digest
   intervals out of order). Neither may disturb the session. *)
let garbage_frame_traced () =
  let refused =
    encode_msg
      (Reconcile.Digest_request
         {
           upto = 0;
           intervals =
             [ { Reconcile.lo = 5; hi = 6; digest = "" }; { Reconcile.lo = 1; hi = 2; digest = "" } ];
         })
  in
  let mangle ~round:_ frames = "\xff\xfenot-a-message" :: refused :: frames in
  let o =
    scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node ()
  in
  check_b "completed" true (Option.is_some o.stats);
  check_b "decode failure traced" true
    (List.exists
       (function
         | Peer_engine.Decode_failed _ -> true
         | Peer_engine.Session_started _ | Peer_engine.Request_resent _
         | Peer_engine.Session_completed _ | Peer_engine.Session_aborted _
         | Peer_engine.Request_suppressed _ | Peer_engine.Reply_ignored _
         | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
         | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_sent _
         | Peer_engine.Trace_context_received _ ->
           false)
       o.events)

let retry_exhaustion_aborts () =
  let mangle ~round:_ _frames = [] in
  let o =
    scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node ()
  in
  check_b "no completion" true (Option.is_none o.stats);
  (match o.aborted with
  | Some Peer_engine.Stalled -> ()
  | Some Peer_engine.Timed_out -> Alcotest.fail "expected Stalled, got Timed_out"
  | None -> Alcotest.fail "expected the session to be abandoned");
  let resent =
    List.length
      (List.filter
         (function
           | Peer_engine.Request_resent _ -> true
           | Peer_engine.Session_started _ | Peer_engine.Session_completed _
           | Peer_engine.Session_aborted _ | Peer_engine.Request_suppressed _
           | Peer_engine.Reply_ignored _ | Peer_engine.Decode_failed _
           | Peer_engine.Blocks_served _ | Peer_engine.Redundant_received _
           | Peer_engine.Peer_advertised _ | Peer_engine.Trace_context_sent _
           | Peer_engine.Trace_context_received _ ->
             false)
         o.events)
  in
  check_i "spent the whole retransmit budget" 3 resent;
  check_b "replica untouched" true (frontier_eq o.dag (Node.dag behind_node))

(* Random drop/duplicate transport: every run must either complete with
   the reference merge or abandon honestly — never crash, never
   half-apply. *)
let qcheck_random_transport =
  QCheck.Test.make ~count:40 ~name:"random lossy transport converges or aborts"
    QCheck.(int_bound 9999)
    (fun seed ->
      let rng = Vegvisir_crypto.Rng.create (Int64.of_int (seed + 1)) in
      let mangle ~round:_ frames =
        List.concat_map
          (fun f ->
            match Vegvisir_crypto.Rng.int rng 4 with
            | 0 -> [] (* lost *)
            | 1 -> [ f; f ] (* duplicated *)
            | _ -> [ f ])
          frames
      in
      let o = scripted_pull ~mangle ~a_node:behind_node ~b_node:ahead_node () in
      match (o.stats, o.aborted) with
      | Some _, _ -> frontier_eq o.dag (reference_merge Reconcile.Naive)
      | None, Some Peer_engine.Stalled ->
        frontier_eq o.dag (Node.dag behind_node)
      | None, (Some Peer_engine.Timed_out | None) -> false)

(* Whatever one frame holds, [handle] returns: random bytes, or any
   message with hostile fields (u32 extremes, inverted, overlapping and
   descending intervals, unknown and repeated hashes, garbage filters),
   delivered to an engine of each mode whose session is in flight to
   the sender. *)
let qcheck_no_frame_raises =
  let open QCheck.Gen in
  let ahead = Node.dag ahead_node and dag = Node.dag behind_node in
  let blocks = Dag.topo_order ahead in
  let hashes =
    Hash_id.digest "unknown" :: List.map (fun (b : Block.t) -> b.Block.hash) blocks
  in
  let u32 = oneof [ oneofl [ 0; 1; 0xFFFF_FFFF; 0xFFFF_FFFE ]; int_bound 12 ] in
  let interval =
    map3
      (fun lo hi digest -> { Reconcile.lo; hi; digest })
      u32 u32 (oneofl [ ""; "junk"; String.make 32 '\x00' ])
  in
  let some g = list_size (int_bound 5) g in
  let message =
    oneof
      [
        map (fun level -> Reconcile.Frontier_request { level }) u32;
        map2 (fun level blocks -> Reconcile.Frontier_reply { level; blocks }) u32 (some (oneofl blocks));
        map (fun filter -> Reconcile.Bloom_request { filter }) (string_size (int_bound 40));
        map (fun blocks -> Reconcile.Bloom_reply { blocks }) (some (oneofl blocks));
        map (fun hashes -> Reconcile.Blocks_request { hashes }) (some (oneofl hashes));
        map (fun blocks -> Reconcile.Blocks_reply { blocks }) (some (oneofl blocks));
        map2 (fun upto intervals -> Reconcile.Digest_request { upto; intervals }) u32 (some interval);
        map2
          (fun splits leaves -> Reconcile.Digest_reply { splits; leaves })
          (some interval)
          (some (map3 (fun lo hi hashes -> { Reconcile.lo; hi; hashes }) u32 u32 (some (oneofl hashes))));
        map2 (fun trace span -> Reconcile.Trace_context { trace; span }) string string;
      ]
  in
  let frame = oneof [ string_size (int_bound 64); map encode_msg message ] in
  QCheck.Test.make ~count:300 ~name:"no frame raises"
    (QCheck.make (list_size (1 -- 4) frame))
    (fun frames ->
      List.iter
        (fun mode ->
          let e =
            Peer_engine.create
              ~config:{ Peer_engine.Config.default with Peer_engine.Config.mode }
              ~user_id:(Node.user_id behind_node) ~dag:dag ()
          in
          let e, _ = Peer_engine.handle e ~now:0. ~dag:dag (Peer_engine.Tick { peer = Some 1 }) in
          ignore
            (List.fold_left
               (fun e bytes ->
                 fst
                   (Peer_engine.handle e ~now:1. ~dag:dag
                      (Peer_engine.Message_received { from = 1; bytes })))
               e frames))
        Reconcile.Mode.all;
      true)

(* ------------------------------------------------------------------ *)
(* Timeouts and stale generations                                       *)

let session_dag = Node.dag behind_node

let start_session engine ~now =
  let engine, effs =
    Peer_engine.handle engine ~now ~dag:session_dag
      (Peer_engine.Tick { peer = Some 1 })
  in
  check_b "session started" true (Peer_engine.busy engine);
  check_i "sent the first request" 1 (List.length (sends effs));
  engine

let timeout_aborts_session () =
  let e =
    Peer_engine.create ~user_id:(Node.user_id behind_node) ~dag:session_dag ()
  in
  let e = start_session e ~now:0. in
  let gen = Peer_engine.generation e in
  let e, effs =
    Peer_engine.handle e ~now:31_000. ~dag:session_dag
      (Peer_engine.Timer_fired (Peer_engine.Session_timeout { generation = gen }))
  in
  check_b "no longer busy" false (Peer_engine.busy e);
  check_b "aborted as timed out" true
    (List.exists
       (Peer_engine.effect_equal
          (Peer_engine.Trace
             (Peer_engine.Session_aborted
                { dst = 1; generation = gen; reason = Peer_engine.Timed_out })))
       effs)

let stale_generation_timer_ignored () =
  let e =
    Peer_engine.create ~user_id:(Node.user_id behind_node) ~dag:session_dag ()
  in
  let e = start_session e ~now:0. in
  let old_gen = Peer_engine.generation e in
  (* Abort it, start a new session; the first session's timer then fires
     late and must not kill the new session. *)
  let e, _ =
    Peer_engine.handle e ~now:1_000. ~dag:session_dag
      (Peer_engine.Timer_fired
         (Peer_engine.Session_timeout { generation = old_gen }))
  in
  let e = start_session e ~now:2_000. in
  check_i "fresh generation" (old_gen + 1) (Peer_engine.generation e);
  let e', effs =
    Peer_engine.handle e ~now:3_000. ~dag:session_dag
      (Peer_engine.Timer_fired
         (Peer_engine.Session_timeout { generation = old_gen }))
  in
  check_b "still busy" true (Peer_engine.busy e');
  check_i "no effects for a stale timer" 0 (List.length effs)

(* ------------------------------------------------------------------ *)
(* Policies (§IV-B)                                                     *)

let a_request () =
  encode_msg (Reconcile.Frontier_request { level = 1 })

let served_of effs =
  List.concat_map
    (fun (e : Peer_engine.effect_) ->
      match e with
      | Peer_engine.Trace (Peer_engine.Blocks_served { blocks; _ }) -> blocks
      | _ -> [])
    effs

(* The responder keeps no per-peer memory: every request of a full pull,
   served twice (the second copy is the initiator's retransmission after
   a lost reply), gets an identical reply frame and Blocks_served trace. *)
let stateless_responder mode () =
  let behind = Node.dag behind_node and ahead = Node.dag ahead_node in
  let responder =
    ref
      (Peer_engine.create
         ~config:{ Peer_engine.Config.default with Peer_engine.Config.mode }
         ~user_id:(Node.user_id ahead_node) ~dag:ahead ())
  in
  let serve request =
    let r', effs =
      Peer_engine.handle !responder ~now:0. ~dag:ahead
        (Peer_engine.Message_received { from = 0; bytes = encode_msg request })
    in
    responder := r';
    effs
  in
  let rec pull session request served =
    let first = serve request in
    let again = serve request in
    check_b "retransmission answered identically" true
      (List.equal Peer_engine.effect_equal first again);
    let served = served + List.length (served_of first) in
    let reply =
      match sends first with
      | [ bytes ] -> Wire.decode_string Reconcile.decode_message bytes
      | _ -> None
    in
    match Option.map (Reconcile.handle_reply session behind) reply with
    | Some (session, Reconcile.Send next) -> pull session next served
    | Some (_, Reconcile.Finished _) -> served
    | Some (_, Reconcile.Ignored) | None -> Alcotest.fail "no usable reply"
  in
  let session, first = Reconcile.start mode behind in
  check_b "the pull shipped blocks" true (pull session first 0 > 0)

(* Frames of the retired wire tags 3 and 4 (the indexed strategy's
   request and reply) are undecodable garbage to the engine. *)
let retired_tags_decode_failed () =
  let e =
    Peer_engine.create ~user_id:(Node.user_id ahead_node)
      ~dag:(Node.dag ahead_node) ()
  in
  List.iter
    (fun hex ->
      let _, effs =
        Peer_engine.handle e ~now:0. ~dag:(Node.dag ahead_node)
          (Peer_engine.Message_received
             { from = 1; bytes = Vegvisir_crypto.Hex.decode hex })
      in
      check_b "decode failure traced" true
        (List.equal Peer_engine.effect_equal effs
           [ Peer_engine.Trace (Peer_engine.Decode_failed { from = 1 }) ]))
    [
      "030000000100000020" ^ Vegvisir_crypto.Hex.encode (String.make 32 'h')
      ^ "00000000";
      "0400000000";
    ]

let silent_policy () =
  let e =
    Peer_engine.create
      ~config:
        {
          Peer_engine.Config.default with
          Peer_engine.Config.policy = Peer_engine.Silent;
        }
      ~user_id:(Node.user_id ahead_node) ~dag:(Node.dag ahead_node) ()
  in
  check_b "never initiates" false (Peer_engine.will_initiate e ~now:0.);
  let e, effs =
    Peer_engine.handle e ~now:0. ~dag:(Node.dag ahead_node)
      (Peer_engine.Tick { peer = Some 1 })
  in
  check_b "no session" false (Peer_engine.busy e);
  check_i "no frames" 0 (List.length (sends effs));
  let _, effs =
    Peer_engine.handle e ~now:0. ~dag:(Node.dag ahead_node)
      (Peer_engine.Message_received { from = 1; bytes = a_request () })
  in
  check_i "request unanswered" 0 (List.length (sends effs));
  check_b "suppression traced" true
    (List.exists
       (Peer_engine.effect_equal
          (Peer_engine.Trace (Peer_engine.Request_suppressed { src = 1 })))
       effs)

let withholding_serves_only_own () =
  let o =
    scripted_pull ~b_policy:Peer_engine.Withholding ~a_node:behind_node
      ~b_node:ahead_node ()
  in
  check_b "completed" true (Option.is_some o.stats);
  check_b "own block served" true
    (Dag.mem o.dag ahead_own_block.Block.hash);
  List.iter
    (fun (b : Block.t) ->
      check_b "foreign block withheld" false (Dag.mem o.dag b.Block.hash))
    ahead_foreign_blocks

(* The incrementally maintained censored view (Block_created absorption)
   answers exactly like one rebuilt from the full replica at creation
   time — the cache the withholding hot-path optimisation relies on. *)
let withholding_cache_matches_rebuild () =
  let seeded =
    Peer_engine.create
      ~config:
        {
          Peer_engine.Config.default with
          Peer_engine.Config.policy = Peer_engine.Withholding;
        }
      ~user_id:(Node.user_id ahead_node) ~dag:(Node.dag ahead_node) ()
  in
  let genesis_only =
    List.fold_left
      (fun acc (b : Block.t) ->
        if Block.is_genesis b then
          match Dag.add acc b with Ok d -> d | Error _ -> acc
        else acc)
      Dag.empty
      (Dag.topo_order (Node.dag ahead_node))
  in
  let incremental =
    Peer_engine.create
      ~config:
        {
          Peer_engine.Config.default with
          Peer_engine.Config.policy = Peer_engine.Withholding;
        }
      ~user_id:(Node.user_id ahead_node) ~dag:genesis_only ()
  in
  let incremental =
    List.fold_left
      (fun e (b : Block.t) ->
        fst
          (Peer_engine.handle e ~now:0. ~dag:(Node.dag ahead_node)
             (Peer_engine.Block_created b)))
      incremental
      (Dag.topo_order (Node.dag ahead_node))
  in
  List.iter
    (fun level ->
      let req = encode_msg (Reconcile.Frontier_request { level }) in
      let stimulate engine =
        let _, effs =
          Peer_engine.handle engine ~now:0. ~dag:(Node.dag ahead_node)
            (Peer_engine.Message_received { from = 0; bytes = req })
        in
        sends effs
      in
      check_b
        (Printf.sprintf "same reply at level %d" level)
        true
        (List.equal String.equal (stimulate seeded) (stimulate incremental)))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Timer-key codec                                                      *)

let timer_codec_units () =
  check_b "gossip" true
    (match Peer_engine.timer_of_tag "gossip" with
    | Some Peer_engine.Gossip_round -> true
    | Some (Peer_engine.Session_timeout _) | None -> false);
  check_b "timeout:7" true
    (match Peer_engine.timer_of_tag "timeout:7" with
    | Some (Peer_engine.Session_timeout { generation = 7 }) -> true
    | Some (Peer_engine.Session_timeout _ | Peer_engine.Gossip_round) | None ->
      false);
  List.iter
    (fun tag ->
      check_b ("foreign tag " ^ tag) true
        (match Peer_engine.timer_of_tag tag with None -> true | Some _ -> false))
    [ ""; "gossipx"; "timeout"; "timeout:"; "timeout:x"; "timeout:1:2"; "t:1" ]

let qcheck_timer_roundtrip =
  QCheck.Test.make ~count:200 ~name:"timer tag codec roundtrips"
    QCheck.(int_bound 1_000_000)
    (fun generation ->
      let key = Peer_engine.Session_timeout { generation } in
      match Peer_engine.timer_of_tag (Peer_engine.tag_of_timer key) with
      | Some (Peer_engine.Session_timeout { generation = g }) ->
        Int.equal g generation
      | Some Peer_engine.Gossip_round | None -> false)

(* ------------------------------------------------------------------ *)
(* Adapter vs scripted driver: identical traces for identical inputs    *)

(* Run a real simulated fleet with a recording tap, then replay every
   peer's recorded input sequence through a fresh engine. Because the
   engine is a pure state machine, the replay must reproduce the adapter
   run's effects bit for bit — the property that makes the Simnet host
   and any other host interchangeable. *)
let adapter_trace_replays () =
  let module Net = Vegvisir_net in
  let recorded : (int * float * Dag.t * Peer_engine.input * Peer_engine.effect_ list) list ref =
    ref []
  in
  let tap ~peer ~now ~dag input effects =
    recorded := (peer, now, dag, input, effects) :: !recorded
  in
  let behaviors =
    [| Peer_engine.Honest; Peer_engine.Withholding; Peer_engine.Honest |]
  in
  let fleet =
    Net.Scenario.build ~seed:77L ~topo:(Net.Topology.clique ~n:3) ~behaviors
      ~tap
      ~init_crdts:[ ("log", log_spec) ]
      ()
  in
  let g = fleet.Net.Scenario.gossip in
  Net.Scenario.run fleet ~until_ms:2_000.;
  (match
     Node.prepare_transaction (Net.Gossip.node g 0) ~crdt:"log" ~op:"add"
       [ Value.String "traced" ]
   with
  | Ok tx -> begin
    match Net.Gossip.append g 0 [ tx ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "fleet append: %a" Node.pp_append_error e
  end
  | Error e -> Alcotest.failf "prepare: %s" (Schema.error_to_string e));
  Net.Scenario.run fleet ~until_ms:20_000.;
  let steps = List.rev !recorded in
  check_b "something was recorded" true (List.length steps > 100);
  (* Fresh engines with the adapter's creation parameters (Gossip.create
     widens stale_after_ms to twice the gossip interval; Scenario.build
     creates engines before the genesis is seeded, hence the empty dag). *)
  let engines =
    Array.init 3 (fun i ->
        ref
          (Peer_engine.create
             ~config:
               {
                 Peer_engine.Config.default with
                 Peer_engine.Config.policy = behaviors.(i);
                 stale_after_ms = 5_000.;
               }
             ~user_id:(Node.user_id (Net.Gossip.node g i)) ~dag:Dag.empty ()))
  in
  let mismatches =
    List.fold_left
      (fun bad (peer, now, dag, input, expected) ->
        let e', effects = Peer_engine.handle !(engines.(peer)) ~now ~dag input in
        engines.(peer) := e';
        if List.equal Peer_engine.effect_equal effects expected then bad
        else bad + 1)
      0 steps
  in
  check_i "every step replays identically" 0 mismatches

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "vegvisir-engine"
    [
      ( "reconciliation",
        [
          Alcotest.test_case "scripted pipe == sync_dags" `Quick
            scripted_matches_sync_dags;
          Alcotest.test_case "lost reply -> retransmit" `Quick
            lost_reply_recovers;
          Alcotest.test_case "duplicated replies ignored" `Quick
            duplicated_replies_ignored;
          Alcotest.test_case "reordered replies recover" `Quick
            reordered_replies_recover;
          Alcotest.test_case "garbage frame traced" `Quick garbage_frame_traced;
          Alcotest.test_case "retired tags 3 and 4 traced" `Quick
            retired_tags_decode_failed;
          Alcotest.test_case "retry exhaustion aborts" `Quick
            retry_exhaustion_aborts;
          QCheck_alcotest.to_alcotest qcheck_random_transport;
          QCheck_alcotest.to_alcotest qcheck_no_frame_raises;
        ] );
      ( "timers",
        [
          Alcotest.test_case "timeout aborts session" `Quick
            timeout_aborts_session;
          Alcotest.test_case "stale generation ignored" `Quick
            stale_generation_timer_ignored;
          Alcotest.test_case "timer codec units" `Quick timer_codec_units;
          QCheck_alcotest.to_alcotest qcheck_timer_roundtrip;
        ] );
      ( "policies",
        [
          Alcotest.test_case "stateless responder: naive" `Quick
            (stateless_responder Reconcile.Naive);
          Alcotest.test_case "stateless responder: bloom" `Quick
            (stateless_responder Reconcile.Bloom);
          Alcotest.test_case "stateless responder: digest" `Quick
            (stateless_responder Reconcile.Digest);
          Alcotest.test_case "silent" `Quick silent_policy;
          Alcotest.test_case "withholding serves only own" `Quick
            withholding_serves_only_own;
          Alcotest.test_case "withholding cache == rebuild" `Quick
            withholding_cache_matches_rebuild;
        ] );
      ( "hosts",
        [
          Alcotest.test_case "adapter trace replays" `Quick
            adapter_trace_replays;
        ] );
    ]
