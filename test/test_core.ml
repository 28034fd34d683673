(* Unit and property tests for the core vegvisir library: identifiers,
   wire format, certificates, blocks, the DAG, validation, the CRDT state
   machine, reconciliation, witness proofs, and the support chain. *)

open Vegvisir
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let ts ms = Timestamp.of_ms (Int64.of_int ms)

(* Shared fixtures: an owner (CA) and two members with oracle keys. *)
let owner_signer = Signer.oracle ~signature_size:64 ~id:"owner" ()
let owner_cert = Certificate.self_signed ~signer:owner_signer ~role:"ca"
let alice_signer = Signer.oracle ~signature_size:64 ~id:"alice" ()

let alice_cert =
  Certificate.issue ~ca:owner_cert ~ca_signer:owner_signer ~subject:alice_signer
    ~role:"medic"

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

(* ------------------------------------------------------------------ *)
(* Hash_id                                                              *)

let hash_id_basics () =
  let h = Hash_id.digest "hello" in
  check_i "size" 32 (String.length (Hash_id.to_raw h));
  check_b "of_raw roundtrip" true (Hash_id.of_raw (Hash_id.to_raw h) = Some h);
  check_b "of_raw wrong size" true (Hash_id.of_raw "short" = None);
  check_b "hex roundtrip" true (Hash_id.of_hex (Hash_id.to_hex h) = Some h);
  check_b "bad hex" true (Hash_id.of_hex "zz" = None);
  check_i "short" 8 (String.length (Hash_id.short h));
  check_b "equal" true (Hash_id.equal h (Hash_id.digest "hello"));
  check_b "distinct" false (Hash_id.equal h (Hash_id.digest "other"))

(* ------------------------------------------------------------------ *)
(* Wire                                                                 *)

let wire_roundtrip () =
  let b = Buffer.create 64 in
  Wire.put_u8 b 255;
  Wire.put_u16 b 65535;
  Wire.put_u32 b 123456;
  Wire.put_i64 b (-42L);
  Wire.put_str b "hello";
  Wire.put_list b Wire.put_str [ "a"; "bb"; "" ];
  Wire.put_opt b Wire.put_u32 (Some 7);
  Wire.put_opt b Wire.put_u32 None;
  let c = Wire.cursor (Buffer.contents b) in
  check_i "u8" 255 (Wire.get_u8 c);
  check_i "u16" 65535 (Wire.get_u16 c);
  check_i "u32" 123456 (Wire.get_u32 c);
  Alcotest.(check int64) "i64" (-42L) (Wire.get_i64 c);
  check_s "str" "hello" (Wire.get_str c);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (Wire.get_list c Wire.get_str);
  check_b "opt some" true (Wire.get_opt c Wire.get_u32 = Some 7);
  check_b "opt none" true (Wire.get_opt c Wire.get_u32 = None);
  check_b "at end" true (Wire.at_end c)

let wire_malformed () =
  let c = Wire.cursor "\x01" in
  (try
     ignore (Wire.get_u32 c);
     Alcotest.fail "expected Malformed"
   with Wire.Malformed _ -> ());
  check_b "decode_string rejects trailing" true
    (Wire.decode_string Wire.get_u8 "\x01\x02" = None);
  check_b "decode_string ok" true (Wire.decode_string Wire.get_u8 "\x09" = Some 9);
  Alcotest.check_raises "put_u8 range" (Invalid_argument "Wire.put_u8") (fun () ->
      Wire.put_u8 (Buffer.create 1) 256)

(* ------------------------------------------------------------------ *)
(* Signer / Certificate                                                 *)

let signer_schemes () =
  let mss = Signer.mss ~height:2 ~seed:"s" () in
  let msg = "message" in
  let sg = mss.Signer.sign msg in
  check_b "mss verify" true
    (Signer.verify ~scheme:"mss" ~public:mss.Signer.public ~msg sg);
  check_b "mss wrong msg" false
    (Signer.verify ~scheme:"mss" ~public:mss.Signer.public ~msg:"other" sg);
  check_b "remaining counts" true (mss.Signer.remaining () = Some 3);
  let o = Signer.oracle ~signature_size:64 ~id:"x" () in
  let so = o.Signer.sign msg in
  check_i "oracle size" 64 (String.length so);
  check_b "oracle verify" true
    (Signer.verify ~scheme:"oracle" ~public:o.Signer.public ~msg so);
  check_b "oracle wrong public" false
    (Signer.verify ~scheme:"oracle" ~public:"oracle:y" ~msg so);
  check_b "unknown scheme" false
    (Signer.verify ~scheme:"rsa" ~public:o.Signer.public ~msg so)

let certificate_checks () =
  check_b "self-signed verifies" true (Certificate.verify ~ca:owner_cert owner_cert);
  check_b "issued verifies" true (Certificate.verify ~ca:owner_cert alice_cert);
  check_b "self-signed detected" true (Certificate.is_self_signed owner_cert);
  check_b "issued not self-signed" false (Certificate.is_self_signed alice_cert);
  (* Tampering with the role breaks the signature. *)
  let tampered = { alice_cert with Certificate.role = "ca" } in
  check_b "tampered role rejected" false (Certificate.verify ~ca:owner_cert tampered);
  (* Serialization. *)
  (match Certificate.of_string (Certificate.to_string alice_cert) with
  | Some c ->
    check_b "roundtrip" true (Certificate.equal c alice_cert);
    check_b "roundtrip verifies" true (Certificate.verify ~ca:owner_cert c)
  | None -> Alcotest.fail "certificate roundtrip");
  check_b "garbage rejected" true (Certificate.of_string "junk" = None);
  (* A certificate signed by a non-CA key fails. *)
  let mallory = Signer.oracle ~signature_size:64 ~id:"mallory" () in
  let forged = Certificate.issue ~ca:(Certificate.self_signed ~signer:mallory ~role:"ca")
      ~ca_signer:mallory ~subject:bob_signer ~role:"admin" in
  check_b "wrong issuer rejected" false (Certificate.verify ~ca:owner_cert forged)

(* ------------------------------------------------------------------ *)
(* Transaction / Block                                                  *)

let transaction_roundtrip () =
  let txs =
    [
      add_tx "hello";
      Transaction.add_user alice_cert;
      Transaction.create_crdt ~name:"c" (Schema.spec Schema.Gcounter Value.T_int);
      Transaction.make ~crdt:"x" ~op:"op" [];
    ]
  in
  List.iter
    (fun tx ->
      let b = Buffer.create 64 in
      Transaction.encode b tx;
      let c = Wire.cursor (Buffer.contents b) in
      let tx' = Transaction.decode c in
      check_b "tx roundtrip" true (Transaction.equal tx tx');
      check_i "byte_size" (Buffer.length b) (Transaction.byte_size tx))
    txs

let block_roundtrip_and_tamper () =
  let b =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 10)
      ~location:(Location.make ~lat:1.5 ~lon:2.5)
      ~parents:[ genesis.Block.hash ]
      [ add_tx "x"; add_tx "y" ]
  in
  check_b "not genesis" false (Block.is_genesis b);
  check_i "byte_size is the encoded length" (String.length (Block.to_string b))
    (Block.byte_size b);
  check_i "genesis byte_size" (String.length (Block.to_string genesis))
    (Block.byte_size genesis);
  check_b "signature verifies" true
    (Block.verify_signature ~public:alice_signer.Signer.public ~scheme:"oracle" b);
  (match Block.of_string (Block.to_string b) with
  | Some b' ->
    check_b "roundtrip equal" true (Block.equal b b');
    check_b "hash stable" true (Hash_id.equal b.Block.hash b'.Block.hash);
    check_b "location survives" true (b'.Block.location = b.Block.location)
  | None -> Alcotest.fail "block roundtrip");
  (* Bit-flip anywhere changes identity and is detected. *)
  let raw = Bytes.of_string (Block.to_string b) in
  Bytes.set raw 60 (Char.chr (Char.code (Bytes.get raw 60) lxor 1));
  (match Block.of_string (Bytes.to_string raw) with
  | Some forged ->
    check_b "identity changed" false (Hash_id.equal forged.Block.hash b.Block.hash)
  | None -> () (* structurally invalid is also fine *));
  check_b "garbage rejected" true (Block.of_string "nope" = None)

let block_canonical_parents () =
  let p1 = Hash_id.digest "p1" and p2 = Hash_id.digest "p2" in
  let mk parents =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 5) ~parents [ add_tx "z" ]
  in
  let a = mk [ p1; p2; p1 ] and b = mk [ p2; p1 ] in
  check_b "parent order/dup canonicalized" true (Block.equal a b);
  check_i "dedup" 2 (List.length a.Block.parents)

(* ------------------------------------------------------------------ *)
(* DAG                                                                  *)

let mk_block ?(signer = alice_signer) ?(creator = alice_cert.Certificate.user_id)
    ~t ~parents label =
  Block.create ~signer ~creator ~timestamp:(ts t) ~parents [ add_tx label ]

let dag_with_genesis () = Result.get_ok (Dag.add Dag.empty genesis)

let dag_basics () =
  let d = dag_with_genesis () in
  check_i "one block" 1 (Dag.cardinal d);
  check_b "genesis" true (Dag.genesis d = Some genesis);
  check_b "frontier is genesis" true
    (Hash_id.Set.equal (Dag.frontier d) (Hash_id.Set.singleton genesis.Block.hash));
  let b1 = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "b1" in
  let d = Result.get_ok (Dag.add d b1) in
  check_b "frontier moves" true
    (Hash_id.Set.equal (Dag.frontier d) (Hash_id.Set.singleton b1.Block.hash));
  check_b "duplicate" true (Dag.add d b1 = Error Dag.Duplicate);
  check_b "height genesis" true (Dag.height d genesis.Block.hash = Some 0);
  check_b "height b1" true (Dag.height d b1.Block.hash = Some 1);
  check_i "max height" 1 (Dag.max_height d);
  let orphan = mk_block ~t:20 ~parents:[ Hash_id.digest "unknown" ] "orphan" in
  (match Dag.add d orphan with
  | Error (Dag.Missing_parents missing) -> check_i "one missing" 1 (Hash_id.Set.cardinal missing)
  | _ -> Alcotest.fail "expected missing parents");
  let second_gen =
    Node.genesis_block ~signer:bob_signer ~cert:bob_cert ~timestamp:(ts 0) ()
  in
  check_b "second genesis refused" true (Dag.add d second_gen = Error Dag.Second_genesis)

(* Build the diamond: genesis <- a <- (b, c) <- d *)
let diamond () =
  let d0 = dag_with_genesis () in
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let b = mk_block ~t:20 ~parents:[ a.Block.hash ] "b" in
  let c = mk_block ~t:21 ~parents:[ a.Block.hash ] "c" in
  let d = mk_block ~t:30 ~parents:[ b.Block.hash; c.Block.hash ] "d" in
  let dag =
    List.fold_left (fun acc x -> Result.get_ok (Dag.add acc x)) d0 [ a; b; c; d ]
  in
  (dag, a, b, c, d)

(* A block's bytes are its field encoding, whether it was created,
   decoded from a frame, or loaded with a whole DAG image. *)
let block_keeps_its_bytes () =
  let field_encoding (b : Block.t) =
    let body =
      Block.signing_bytes ~creator:b.Block.creator ~timestamp:b.Block.timestamp
        ~location:b.Block.location ~parents:b.Block.parents
        ~transactions:b.Block.transactions
    in
    let tag = String.length "vegvisir-block-v1" in
    let buf = Buffer.create 256 in
    Buffer.add_string buf (String.sub body tag (String.length body - tag));
    Wire.put_str buf (Block.signature b);
    Buffer.contents buf
  in
  let dag, a, b, c, d = diamond () in
  let placed =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 40)
      ~location:(Location.make ~lat:1.5 ~lon:2.5)
      ~parents:[ d.Block.hash ] [ add_tx "x" ]
  in
  let created = [ genesis; a; b; c; d; placed ] in
  let frame = Buffer.create 1024 in
  Reconcile.encode_message frame (Reconcile.Blocks_reply { blocks = created });
  let decoded =
    match Wire.decode_string Reconcile.decode_message (Buffer.contents frame) with
    | Some (Reconcile.Blocks_reply { blocks }) -> blocks
    | Some _ | None -> Alcotest.fail "reply does not decode"
  in
  let dag = Result.get_ok (Dag.add dag placed) in
  let loaded = Dag.topo_order (Option.get (Dag.of_string (Dag.to_string dag))) in
  check_i "all loaded" 6 (List.length loaded);
  List.iter
    (fun (kind, blocks) ->
      List.iter
        (fun (b : Block.t) ->
          check_s (kind ^ ": bytes = field encoding") (field_encoding b) (Block.to_string b);
          check_b (kind ^ ": hash of the bytes") true
            (Hash_id.equal b.Block.hash (Hash_id.digest (Block.to_string b)));
          check_b (kind ^ ": signature verifies") true
            (Block.is_genesis b
            || Block.verify_signature ~public:alice_signer.Signer.public ~scheme:"oracle" b))
        blocks)
    [ ("created", created); ("decoded", decoded); ("Dag.decoded", loaded) ]

let dag_diamond_queries () =
  let dag, a, b, c, d = diamond () in
  check_i "branch width" 1 (Dag.branch_width dag);
  check_b "frontier = d" true
    (Hash_id.Set.equal (Dag.frontier dag) (Hash_id.Set.singleton d.Block.hash));
  check_b "ancestors of d" true
    (Hash_id.Set.equal
       (Dag.ancestors dag d.Block.hash)
       (Hash_id.Set.of_list
          [ genesis.Block.hash; a.Block.hash; b.Block.hash; c.Block.hash ]));
  check_b "descendants of a" true
    (Hash_id.Set.equal
       (Dag.descendants dag a.Block.hash)
       (Hash_id.Set.of_list [ b.Block.hash; c.Block.hash; d.Block.hash ]));
  check_b "is_ancestor" true
    (Dag.is_ancestor dag ~ancestor:a.Block.hash ~descendant:d.Block.hash);
  check_b "not ancestor (concurrent)" false
    (Dag.is_ancestor dag ~ancestor:b.Block.hash ~descendant:c.Block.hash);
  check_b "height d" true (Dag.height dag d.Block.hash = Some 3);
  check_i "children of a" 2 (Hash_id.Set.cardinal (Dag.children dag a.Block.hash))

let dag_level_frontier () =
  let dag, a, b, c, d = diamond () in
  let lf n = Dag.level_frontier dag n in
  check_b "level 1 = frontier" true (Hash_id.Set.equal (lf 1) (Dag.frontier dag));
  (* level 2 = frontier + parents of frontier *)
  check_b "level 2" true
    (Hash_id.Set.equal (lf 2)
       (Hash_id.Set.of_list [ d.Block.hash; b.Block.hash; c.Block.hash ]));
  check_b "level 3 adds a" true (Hash_id.Set.mem a.Block.hash (lf 3));
  check_b "level 4 adds genesis" true (Hash_id.Set.mem genesis.Block.hash (lf 4));
  check_b "level 10 saturates" true (Hash_id.Set.equal (lf 10) (lf 4));
  (* The recursive definition from the paper: L(n) = L(n-1) union parents(L(n-1)). *)
  for n = 2 to 5 do
    let expected =
      Hash_id.Set.fold
        (fun h acc ->
          List.fold_left
            (fun acc p -> if Dag.mem dag p then Hash_id.Set.add p acc else acc)
            acc (Dag.parents dag h))
        (lf (n - 1))
        (lf (n - 1))
    in
    check_b (Printf.sprintf "paper definition level %d" n) true
      (Hash_id.Set.equal (lf n) expected)
  done;
  Alcotest.check_raises "level 0 invalid"
    (Invalid_argument "Dag.level_frontier: level must be >= 1") (fun () ->
      ignore (lf 0))

(* A wire request can ask for any u32 level; the walk must stop at its
   fixpoint. Refolding the whole set [level] times, as the paper's
   definition reads, does not return for [max_int]. *)
let dag_level_frontier_fixpoint () =
  let dag = ref (dag_with_genesis ()) in
  let tip = ref genesis.Block.hash in
  for i = 1 to 999 do
    let b = mk_block ~t:(i * 10) ~parents:[ !tip ] (Printf.sprintf "c%d" i) in
    dag := Result.get_ok (Dag.add !dag b);
    tip := b.Block.hash
  done;
  let dag = !dag in
  check_i "1k chain" 1000 (Dag.cardinal dag);
  let whole = Dag.level_frontier dag (Dag.cardinal dag) in
  check_i "level = cardinal reaches genesis" 1000 (Hash_id.Set.cardinal whole);
  check_b "level max_int = level cardinal" true
    (Hash_id.Set.equal (Dag.level_frontier dag max_int) whole);
  check_i "level 8 on a chain" 8
    (Hash_id.Set.cardinal (Dag.level_frontier dag 8))

let dag_topo_order () =
  let dag, _, _, _, _ = diamond () in
  let order = Dag.topo_order dag in
  check_i "all blocks" 5 (List.length order);
  (* Parents precede children. *)
  let pos =
    List.mapi (fun i b -> (b.Block.hash, i)) order
    |> List.to_seq |> Hash_id.Map.of_seq
  in
  List.iter
    (fun (blk : Block.t) ->
      List.iter
        (fun p ->
          check_b "parent before child" true
            (Hash_id.Map.find p pos < Hash_id.Map.find blk.Block.hash pos))
        blk.Block.parents)
    order;
  (* Canonical: rebuilding the DAG in a different insertion order yields
     the same topological order. *)
  let dag2 =
    List.fold_left
      (fun acc b -> match Dag.add acc b with Ok a -> a | Error _ -> acc)
      (dag_with_genesis ())
      (List.rev (Dag.topo_order dag))
  in
  let dag2 =
    List.fold_left
      (fun acc b -> match Dag.add acc b with Ok a -> a | Error _ -> acc)
      dag2 (Dag.topo_order dag)
  in
  check_b "canonical order" true
    (List.equal Block.equal (Dag.topo_order dag) (Dag.topo_order dag2))

let dag_prune () =
  let dag, a, b, _c, d = diamond () in
  let bytes_before = Dag.byte_size dag in
  Alcotest.check_raises "cannot prune genesis"
    (Invalid_argument "Dag.prune: cannot prune genesis") (fun () ->
      ignore (Dag.prune dag genesis.Block.hash));
  Alcotest.check_raises "cannot prune frontier"
    (Invalid_argument "Dag.prune: cannot prune a frontier block") (fun () ->
      ignore (Dag.prune dag d.Block.hash));
  let dag = Dag.prune dag a.Block.hash in
  check_b "pruned gone" false (Dag.mem dag a.Block.hash);
  check_b "archived" true (Dag.is_archived dag a.Block.hash);
  check_i "archived count" 1 (Dag.archived_count dag);
  check_b "height retained" true (Dag.height dag a.Block.hash = Some 1);
  check_b "bytes decreased" true (Dag.byte_size dag < bytes_before);
  (* New block on top of pruned history is accepted. *)
  let e = mk_block ~t:40 ~parents:[ b.Block.hash ] "e" in
  check_b "extends pruned dag" true (Result.is_ok (Dag.add dag e));
  (* Prune is a no-op for unknown hashes. *)
  check_b "noop" true (Dag.prune dag (Hash_id.digest "nothing") == dag)

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)

let membership_of_genesis () =
  match Validation.check_genesis genesis with
  | Ok m -> m
  | Error e -> Alcotest.failf "genesis invalid: %a" Validation.pp_error e

let validation_genesis () =
  let m = membership_of_genesis () in
  check_b "owner is member" true
    (Membership.is_member m owner_cert.Certificate.user_id);
  (* Genesis missing the owner cert is rejected. *)
  let bad =
    Block.create ~signer:owner_signer ~creator:owner_cert.Certificate.user_id
      ~timestamp:(ts 0) ~parents:[] [ add_tx "not a cert" ]
  in
  (match Validation.check_genesis bad with
  | Error (Validation.Malformed_genesis _) -> ()
  | _ -> Alcotest.fail "genesis without cert accepted");
  (* Genesis whose cert subject is not the creator is rejected. *)
  let mismatched =
    Block.create ~signer:owner_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 0) ~parents:[]
      [ Transaction.add_user owner_cert ]
  in
  match Validation.check_genesis mismatched with
  | Error (Validation.Malformed_genesis _) -> ()
  | _ -> Alcotest.fail "mismatched genesis accepted"

let validation_four_checks () =
  (* Build membership + dag from genesis, then exercise each check. *)
  let m =
    let m = membership_of_genesis () in
    let m = Result.get_ok (Membership.add m alice_cert) in
    Result.get_ok (Membership.add m bob_cert)
  in
  let dag = dag_with_genesis () in
  let ok_block = mk_block ~t:100 ~parents:[ genesis.Block.hash ] "ok" in
  check_b "valid block passes" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) ok_block = Ok ());
  (* 1: unknown creator *)
  let stranger = Signer.oracle ~signature_size:64 ~id:"stranger" () in
  let sb =
    Block.create ~signer:stranger
      ~creator:(Signer.user_id_of_public stranger.Signer.public)
      ~timestamp:(ts 100) ~parents:[ genesis.Block.hash ] []
  in
  check_b "unknown creator" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) sb
    = Error Validation.Unknown_creator);
  (* 2: missing parents *)
  let mp = mk_block ~t:100 ~parents:[ Hash_id.digest "ghost" ] "mp" in
  (match Validation.check_block ~membership:m ~dag ~now:(ts 200) mp with
  | Error (Validation.Missing_parents _) -> ()
  | _ -> Alcotest.fail "missing parents undetected");
  (* 3a: timestamp must exceed parents' *)
  let old = mk_block ~t:0 ~parents:[ genesis.Block.hash ] "old" in
  check_b "stale timestamp" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) old
    = Error Validation.Timestamp_not_after_parents);
  (* 3b: timestamp must not be in the validator's future *)
  let future = mk_block ~t:999_999 ~parents:[ genesis.Block.hash ] "future" in
  check_b "future timestamp" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) future
    = Error Validation.Timestamp_in_future);
  (* clock skew tolerated *)
  let slightly_ahead = mk_block ~t:202 ~parents:[ genesis.Block.hash ] "ahead" in
  check_b "skew tolerated" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) slightly_ahead = Ok ());
  (* 4: signature matches creator: bob signing as alice *)
  let forged =
    Block.create ~signer:bob_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 100) ~parents:[ genesis.Block.hash ] []
  in
  check_b "forged signature" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 200) forged
    = Error Validation.Bad_signature);
  check_b "transient classification" true
    (Validation.is_transient Validation.Unknown_creator
    && Validation.is_transient (Validation.Missing_parents Hash_id.Set.empty)
    && (not (Validation.is_transient Validation.Bad_signature))
    && not (Validation.is_transient Validation.Revoked_creator))

(* An MSS signature names its leaf twice: the 4-byte index and the
   authentication path. Rewriting the index yields a block with a new
   hash over the same signed bytes; if that twin verified, a node would
   hold both and apply their transactions twice. *)
let validation_signature_twin () =
  let signer = Signer.mss ~height:4 ~seed:"twin-seed" () in
  let cert = Certificate.self_signed ~signer ~role:"ca" in
  let g =
    Node.genesis_block ~signer ~cert ~timestamp:(ts 0)
      ~extra:[ Transaction.create_crdt ~name:"log" log_spec ]
      ()
  in
  let node = Node.create ~signer ~cert () in
  ignore (Node.receive node ~now:(ts 1) g);
  let b =
    Block.create ~signer ~creator:cert.Certificate.user_id ~timestamp:(ts 10)
      ~parents:[ g.Block.hash ] [ add_tx "once" ]
  in
  let twin =
    (* The signature closes the encoding; its index is a big-endian u32
       at its start. Index i becomes i + 16: same path, an index beyond
       the height-4 tree. *)
    let raw = Bytes.of_string (Block.to_string b) in
    let at = Bytes.length raw - String.length (Block.signature b) + 3 in
    Bytes.set raw at (Char.chr (Char.code (Bytes.get raw at) lxor 0x10));
    Option.get (Block.of_string (Bytes.to_string raw))
  in
  check_b "twin has its own hash" false (Hash_id.equal b.Block.hash twin.Block.hash);
  (match Node.receive node ~now:(ts 20) b with
  | Node.Accepted -> ()
  | r -> Alcotest.failf "original not accepted: %a" Node.pp_receive_result r);
  (match Node.receive node ~now:(ts 20) twin with
  | Node.Rejected Validation.Bad_signature -> ()
  | r -> Alcotest.failf "twin not rejected as a bad signature: %a" Node.pp_receive_result r);
  check_i "dag holds genesis and the original" 2 (Dag.cardinal (Node.dag node))

let validation_revocation_causality () =
  (* Revocation only kills blocks that causally follow it. *)
  let m = membership_of_genesis () in
  let m = Result.get_ok (Membership.add m alice_cert) in
  let dag = dag_with_genesis () in
  (* Revocation block by owner. *)
  let revoke_block =
    Block.create ~signer:owner_signer ~creator:owner_cert.Certificate.user_id
      ~timestamp:(ts 50) ~parents:[ genesis.Block.hash ]
      [ Transaction.revoke_user alice_cert ]
  in
  let dag = Result.get_ok (Dag.add dag revoke_block) in
  let m = Result.get_ok (Membership.revoke m alice_cert ~revoked_in:revoke_block.Block.hash) in
  (* Alice's block concurrent with the revocation (parent = genesis). *)
  let concurrent = mk_block ~t:60 ~parents:[ genesis.Block.hash ] "conc" in
  check_b "concurrent block tolerated (transient)" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 100) concurrent
    = Error Validation.Unknown_creator);
  (* Alice's block after the revocation (descends from it). *)
  let after = mk_block ~t:70 ~parents:[ revoke_block.Block.hash ] "after" in
  check_b "post-revocation block rejected" true
    (Validation.check_block ~membership:m ~dag ~now:(ts 100) after
    = Error Validation.Revoked_creator)

(* ------------------------------------------------------------------ *)
(* Membership                                                           *)

let membership_two_phase () =
  let m = membership_of_genesis () in
  let m = Result.get_ok (Membership.add m alice_cert) in
  check_b "member" true (Membership.is_member m alice_cert.Certificate.user_id);
  check_b "role" true (Membership.role m alice_cert.Certificate.user_id = Some "medic");
  check_i "cardinal" 2 (Membership.cardinal m);
  let rb = Hash_id.digest "revocation-block" in
  let m = Result.get_ok (Membership.revoke m alice_cert ~revoked_in:rb) in
  check_b "revoked" false (Membership.is_member m alice_cert.Certificate.user_id);
  check_b "revoked_in" true
    (Membership.revoked_in m alice_cert.Certificate.user_id = Some rb);
  (* 2P: re-adding after revocation does not resurrect. *)
  let m = Result.get_ok (Membership.add m alice_cert) in
  check_b "no resurrection" false (Membership.is_member m alice_cert.Certificate.user_id);
  (* Unsigned cert refused. *)
  let mallory = Signer.oracle ~signature_size:64 ~id:"mallory2" () in
  let self = Certificate.self_signed ~signer:mallory ~role:"ca" in
  check_b "non-CA-signed refused" true (Membership.add m self = Error Membership.Not_ca_signed)

(* ------------------------------------------------------------------ *)
(* CSM                                                                  *)

let csm_applies_genesis_and_txs () =
  let csm, _ = Csm.apply_block Csm.empty genesis in
  check_b "membership bootstrapped" true (Csm.membership csm <> None);
  check_b "log exists" true
    (Vegvisir_crdt.Store.find (Csm.store csm) "log" <> None);
  check_b "alice enrolled" true
    (Csm.role_of csm alice_cert.Certificate.user_id = Some "medic");
  let b1 =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 10) ~parents:[ genesis.Block.hash ]
      [ add_tx "entry-1"; add_tx "entry-2" ]
  in
  let csm, results = Csm.apply_block csm b1 in
  check_i "two tx results" 2 (List.length results);
  check_b "all ok" true (List.for_all (fun r -> r.Csm.outcome = Ok ()) results);
  (match Csm.query csm ~crdt:"log" ~op:"size" [] with
  | Ok (Value.Int 2) -> ()
  | _ -> Alcotest.fail "size");
  (* Re-applying the same block is a no-op. *)
  let csm', results' = Csm.apply_block csm b1 in
  check_i "idempotent" 0 (List.length results');
  check_b "state unchanged" true (Csm.converged csm csm')

let csm_rejects_invalid_txs () =
  let csm, _ = Csm.apply_block Csm.empty genesis in
  let bad_block =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 10) ~parents:[ genesis.Block.hash ]
      [
        Transaction.make ~crdt:"log" ~op:"add" [ Value.Int 3 ] (* type error *);
        Transaction.make ~crdt:"ghost" ~op:"add" [ Value.String "x" ];
        Transaction.make ~crdt:"log" ~op:"remove" [ Value.String "x" ] (* gset has no remove *);
        add_tx "good";
      ]
  in
  let csm, results = Csm.apply_block csm bad_block in
  let errs = List.filter (fun r -> Result.is_error r.Csm.outcome) results in
  check_i "three rejected" 3 (List.length errs);
  check_i "rejected counted" 3 (Csm.rejected_tx_count csm);
  (match Csm.query csm ~crdt:"log" ~op:"mem" [ Value.String "good" ] with
  | Ok (Value.Bool true) -> ()
  | _ -> Alcotest.fail "good tx applied")

let csm_membership_rules () =
  let csm, _ = Csm.apply_block Csm.empty genesis in
  (* Alice (not CA, not subject) cannot revoke bob. *)
  let attempt =
    Block.create ~signer:alice_signer ~creator:alice_cert.Certificate.user_id
      ~timestamp:(ts 10) ~parents:[ genesis.Block.hash ]
      [ Transaction.revoke_user bob_cert ]
  in
  let csm, results = Csm.apply_block csm attempt in
  check_b "non-CA revocation rejected" true
    (List.exists (fun r -> Result.is_error r.Csm.outcome) results);
  check_b "bob still member" true
    (Csm.role_of csm bob_cert.Certificate.user_id = Some "member");
  (* Bob may self-revoke. *)
  let self_revoke =
    Block.create ~signer:bob_signer ~creator:bob_cert.Certificate.user_id
      ~timestamp:(ts 20) ~parents:[ genesis.Block.hash ]
      [ Transaction.revoke_user bob_cert ]
  in
  let csm, results = Csm.apply_block csm self_revoke in
  check_b "self-revocation ok" true
    (List.for_all (fun r -> Result.is_ok r.Csm.outcome) results);
  check_b "bob gone" true (Csm.role_of csm bob_cert.Certificate.user_id = None)

let csm_deterministic_across_orders () =
  (* Apply the diamond's blocks in two different topological orders and
     check the CSM states coincide. *)
  let _, a, b, c, d = diamond () in
  let apply_seq blocks =
    List.fold_left (fun csm blk -> fst (Csm.apply_block csm blk)) Csm.empty blocks
  in
  let s1 = apply_seq [ genesis; a; b; c; d ] in
  let s2 = apply_seq [ genesis; a; c; b; d ] in
  check_b "orders converge" true (Csm.converged s1 s2)

(* ------------------------------------------------------------------ *)
(* Witness                                                              *)

let witness_counting () =
  let dag, a, b, _c, _d = diamond () in
  (* a's descendants b,c,d are all by alice = a's creator: no witnesses. *)
  check_i "same-creator descendants don't witness" 0
    (Witness.witness_count dag a.Block.hash);
  (* Bob appends on top: one witness for everything above. *)
  let w =
    Block.create ~signer:bob_signer ~creator:bob_cert.Certificate.user_id
      ~timestamp:(ts 50)
      ~parents:(Hash_id.Set.elements (Dag.frontier dag))
      []
  in
  let dag = Result.get_ok (Dag.add dag w) in
  check_i "bob witnesses a" 1 (Witness.witness_count dag a.Block.hash);
  check_b "proof k=1" true (Witness.has_proof dag a.Block.hash ~k:1);
  check_b "no proof k=2" false (Witness.has_proof dag a.Block.hash ~k:2);
  (* Proof covers ancestors. *)
  let proven = Witness.proven_ancestors dag b.Block.hash ~k:1 in
  check_b "ancestors proven" true
    (Hash_id.Set.mem a.Block.hash proven && Hash_id.Set.mem genesis.Block.hash proven);
  check_b "unknown hash no witnesses" true
    (Hash_id.Set.is_empty (Witness.witnesses dag (Hash_id.digest "none")))

(* ------------------------------------------------------------------ *)
(* Reconcile                                                            *)

let reconcile_message_roundtrip () =
  let msgs =
    [
      Reconcile.Frontier_request { level = 3 };
      Reconcile.Frontier_reply { level = 2; blocks = [ genesis ] };
      Reconcile.Bloom_request { filter = "\x01\x02\xff" };
      Reconcile.Bloom_reply { blocks = [ genesis ] };
      Reconcile.Blocks_request
        { hashes = [ genesis.Block.hash; Hash_id.digest "q" ] };
      Reconcile.Blocks_reply { blocks = [ genesis ] };
      Reconcile.Digest_request
        {
          upto = 7;
          intervals =
            [
              { Reconcile.lo = 0; hi = 3; digest = "\x00abc" };
              { Reconcile.lo = 4; hi = 7; digest = "" };
            ];
        };
      Reconcile.Digest_reply
        {
          splits = [ { Reconcile.lo = 0; hi = 1; digest = "dd" } ];
          leaves =
            [
              {
                Reconcile.lo = 2;
                hi = 3;
                hashes = [ genesis.Block.hash; Hash_id.digest "leaf" ];
              };
            ];
        };
      Reconcile.Trace_context
        { trace = "f93a1d00c4b2e871"; span = "0102aabbccddeeff" };
      Reconcile.Trace_context { trace = ""; span = "" };
    ]
  in
  List.iter
    (fun m ->
      let b = Buffer.create 64 in
      Reconcile.encode_message b m;
      let c = Wire.cursor (Buffer.contents b) in
      let m' = Reconcile.decode_message c in
      check_b "message roundtrip" true (Reconcile.message_equal m m');
      check_i "message_size" (Buffer.length b) (Reconcile.message_size m))
    msgs

(* One fixed encoding per live wire tag, byte for byte. Tags 3 and 4
   (the retired indexed strategy) sit between these; the goldens keep
   any later edit from renumbering or reshaping the surviving tags. *)
let golden_hash = Hash_id.of_raw_exn (String.make 32 'h')
let golden_hash_hex = Vegvisir_crypto.Hex.encode (String.make 32 'h')

let reconcile_wire_goldens () =
  let h = golden_hash and hh = golden_hash_hex in
  List.iter
    (fun (m, golden) ->
      let b = Buffer.create 64 in
      Reconcile.encode_message b m;
      Alcotest.(check string)
        "golden bytes" golden
        (Vegvisir_crypto.Hex.encode (Buffer.contents b));
      check_b "golden decodes back" true
        (match
           Wire.decode_string Reconcile.decode_message
             (Vegvisir_crypto.Hex.decode golden)
         with
        | Some m' -> Reconcile.message_equal m m'
        | None -> false))
    [
      (Reconcile.Frontier_request { level = 3 }, "0100000003");
      (Reconcile.Frontier_reply { level = 2; blocks = [] }, "020000000200000000");
      (Reconcile.Bloom_request { filter = "\x01\x02\xff" }, "05000000030102ff");
      (Reconcile.Bloom_reply { blocks = [] }, "0600000000");
      (Reconcile.Blocks_request { hashes = [ h ] }, "070000000100000020" ^ hh);
      (Reconcile.Blocks_reply { blocks = [] }, "0800000000");
      ( Reconcile.Digest_request
          { upto = 7; intervals = [ { Reconcile.lo = 0; hi = 7; digest = "dg" } ] },
        "0900000007000000010000000000000007000000026467" );
      ( Reconcile.Digest_reply
          {
            splits = [ { Reconcile.lo = 0; hi = 3; digest = "s" } ];
            leaves = [ { Reconcile.lo = 4; hi = 7; hashes = [ h ] } ];
          },
        "0a0000000100000000000000030000000173000000010000000400000007000000010000\
         0020" ^ hh );
      (Reconcile.Trace_context { trace = "t"; span = "s" }, "0b00000001740000000173");
    ]

(* Frames of the retired tags 3 (indexed request: one frontier hash, no
   recent hashes) and 4 (indexed reply, no blocks), as the last version
   to speak them encoded them: they now fail to decode like any unknown
   tag. *)
let reconcile_retired_tags () =
  List.iter
    (fun hex ->
      let frame = Vegvisir_crypto.Hex.decode hex in
      check_b "retired tag does not decode" true
        (Option.is_none (Wire.decode_string Reconcile.decode_message frame)))
    [ "030000000100000020" ^ golden_hash_hex ^ "00000000"; "0400000000" ]

let reconcile_trace_identity () =
  let initiator = Hash_id.digest "initiator-a" in
  let trace, span = Reconcile.session_trace_ids ~initiator ~generation:7 in
  let trace', span' = Reconcile.session_trace_ids ~initiator ~generation:7 in
  check_b "ids deterministic" true
    (String.equal trace trace' && String.equal span span');
  check_i "trace id is 16 hex chars" 16 (String.length trace);
  check_i "span id is 16 hex chars" 16 (String.length span);
  check_b "hex alphabet" true
    (String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       (trace ^ span));
  let trace2, _ = Reconcile.session_trace_ids ~initiator ~generation:8 in
  check_b "generation changes the trace id" false (String.equal trace trace2);
  let other, _ =
    Reconcile.session_trace_ids
      ~initiator:(Hash_id.digest "initiator-b")
      ~generation:7
  in
  check_b "initiator changes the trace id" false (String.equal trace other);
  check_b "rate 0 never samples" false
    (Reconcile.trace_sampled ~initiator ~generation:7 ~rate:0.);
  check_b "rate 1 always samples" true
    (Reconcile.trace_sampled ~initiator ~generation:7 ~rate:1.);
  (* The decision is a deterministic hash threshold, so it is stable
     across calls and monotone in the rate. *)
  let d = Reconcile.trace_sampled ~initiator ~generation:7 ~rate:0.5 in
  check_b "sampling deterministic" true
    (Bool.equal d (Reconcile.trace_sampled ~initiator ~generation:7 ~rate:0.5));
  if d then
    check_b "monotone in rate" true
      (Reconcile.trace_sampled ~initiator ~generation:7 ~rate:0.9);
  let kept = ref 0 in
  for g = 0 to 999 do
    if Reconcile.trace_sampled ~initiator ~generation:g ~rate:0.5 then incr kept
  done;
  check_b "rate 0.5 keeps roughly half" true (!kept > 350 && !kept < 650)

let reconcile_modes_converge () =
  let dag, _, _, _, _ = diamond () in
  List.iter
    (fun mode ->
      let base = dag_with_genesis () in
      let merged, stats = Reconcile.sync_dags mode base dag in
      check_i "all transferred" (Dag.cardinal dag) (Dag.cardinal merged);
      check_b "rounds positive" true (stats.Reconcile.rounds >= 1);
      (* Syncing identical DAGs transfers nothing new. *)
      let merged2, stats2 = Reconcile.sync_dags mode merged dag in
      check_i "idempotent" (Dag.cardinal merged) (Dag.cardinal merged2);
      check_i "single round when identical" 1 stats2.Reconcile.rounds)
    Reconcile.Mode.all

let reconcile_escalation_depth () =
  let a, b, _ = (fun () ->
      let sa = Signer.oracle ~signature_size:64 ~id:"ra" () in
      let ca = Certificate.self_signed ~signer:sa ~role:"ca" in
      let g = Node.genesis_block ~signer:sa ~cert:ca ~timestamp:(ts 0)
          ~extra:[ Transaction.create_crdt ~name:"log" log_spec ] () in
      let na = Node.create ~signer:sa ~cert:ca () in
      let nb = Node.create ~signer:sa ~cert:ca () in
      ignore (Node.receive na ~now:(ts 1) g);
      ignore (Node.receive nb ~now:(ts 1) g);
      (na, nb, g)) ()
  in
  (* b gets a chain of depth 5. *)
  for i = 1 to 5 do
    match Node.prepare_transaction b ~crdt:"log" ~op:"add" [ Value.String (string_of_int i) ] with
    | Ok tx -> ignore (Node.append b ~now:(ts (i * 10)) [ tx ])
    | Error _ -> Alcotest.fail "prepare"
  done;
  let _, stats = Reconcile.sync_dags Reconcile.Naive (Node.dag a) (Node.dag b) in
  check_i "naive rounds = divergence depth" 5 stats.Reconcile.rounds;
  let _, bstats = Reconcile.sync_dags Reconcile.Bloom (Node.dag a) (Node.dag b) in
  check_i "bloom single round" 1 bstats.Reconcile.rounds;
  check_b "bloom fewer bytes" true
    (bstats.Reconcile.bytes_received < stats.Reconcile.bytes_received)

let reconcile_respond_ignores_replies () =
  let dag = dag_with_genesis () in
  check_b "reply gets no response" true
    (Reconcile.respond dag (Reconcile.Frontier_reply { level = 1; blocks = [] }) = None);
  check_b "blocks reply gets no response" true
    (Reconcile.respond dag (Reconcile.Blocks_reply { blocks = [] }) = None)

let reconcile_block_requests () =
  let dag, a, _, _, _ = diamond () in
  (* Explicit block request returns exactly the resident blocks asked for. *)
  (match
     Reconcile.respond dag
       (Reconcile.Blocks_request { hashes = [ a.Block.hash; Hash_id.digest "nope" ] })
   with
  | Some (Reconcile.Blocks_reply { blocks = [ b ] }) ->
    check_b "found the block" true (Block.equal b a)
  | _ -> Alcotest.fail "blocks request");
  (* An empty/garbage bloom filter elicits everything / nothing safely. *)
  match Reconcile.respond dag (Reconcile.Bloom_request { filter = "junk" }) with
  | Some (Reconcile.Bloom_reply { blocks = [] }) -> ()
  | _ -> Alcotest.fail "garbage bloom should yield an empty reply"

(* A linear chain of [n] oracle-signed blocks over the genesis. *)
let chain_dag ?(signer = alice_signer) n =
  let rec go dag parent i =
    if i > n then dag
    else
      let b = mk_block ~signer ~t:(i * 10) ~parents:[ parent ] (string_of_int i) in
      go (Result.get_ok (Dag.add dag b)) b.Block.hash (i + 1)
  in
  go (dag_with_genesis ()) genesis.Block.hash 1

let iv lo hi : Reconcile.interval = { lo; hi; digest = "mismatch" }

(* Both bounds of a digest interval come off the wire: the widest u32
   interval on a 1,000-block chain must cost what the chain costs. *)
let reconcile_digest_wide_interval () =
  let dag = chain_dag 1000 in
  let top = 0xFFFF_FFFF in
  let t0 = Sys.time () in
  let reply =
    Reconcile.respond dag (Reconcile.Digest_request { upto = top; intervals = [ iv 0 top ] })
  in
  let dt = Sys.time () -. t0 in
  (match reply with
  | Some (Reconcile.Digest_reply { splits = [ l; r ]; leaves = [] }) ->
    check_b "split on the raw bounds" true
      (l.Reconcile.lo = 0 && l.Reconcile.hi = top / 2 && r.Reconcile.lo = (top / 2) + 1
     && r.Reconcile.hi = top)
  | _ -> Alcotest.fail "a wide mismatched interval must split in two");
  check_b (Printf.sprintf "answered in %.3f s" dt) true (dt < 0.5)

(* A list that is not ascending and disjoint is refused unanswered; the
   honest shape still gets its reply. *)
let reconcile_digest_refuses_disorder () =
  let dag = chain_dag 40 in
  let refused intervals =
    match Reconcile.respond dag (Reconcile.Digest_request { upto = 40; intervals }) with
    | None -> true
    | Some _ -> false
  in
  check_b "overlapping" true (refused [ iv 0 20; iv 10 30 ]);
  check_b "touching" true (refused [ iv 0 20; iv 20 30 ]);
  check_b "descending" true (refused [ iv 21 40; iv 0 20 ]);
  check_b "repeated" true (refused [ iv 0 40; iv 0 40 ]);
  check_b "inverted" true (refused [ iv 30 10 ]);
  check_b "ascending, disjoint" false (refused [ iv 0 20; iv 21 40 ]);
  check_b "no intervals" false (refused [])

let reconcile_blocks_request_dedup () =
  let dag, a, b, _, d = diamond () in
  let reply hashes =
    match Reconcile.respond dag (Reconcile.Blocks_request { hashes }) with
    | Some (Reconcile.Blocks_reply { blocks }) ->
      List.map (fun (x : Block.t) -> x.Block.hash) blocks
    | _ -> Alcotest.fail "blocks request"
  in
  check_i "10,000 copies of one hash: one block" 1
    (List.length (reply (List.init 10_000 (fun _ -> a.Block.hash))));
  check_b "repeats dropped, first-seen order kept" true
    (List.equal Hash_id.equal
       [ b.Block.hash; a.Block.hash; d.Block.hash ]
       (reply [ b.Block.hash; a.Block.hash; b.Block.hash; d.Block.hash; a.Block.hash ]))

let big_signer size = Signer.oracle ~signature_size:size ~id:"alice" ()

(* The reply stops at the last block that fits a frame, in request
   order, measured on the real encoding. After 63 blocks with 1 MiB
   signatures, a filler brings the reply's encoding to exactly
   [Wire.max_frame], which must be sent whole, or to one byte more,
   which must stop one block short. *)
let reconcile_blocks_reply_fits_a_frame () =
  let buf = Buffer.create (Wire.max_frame + (2 lsl 20)) in
  let encoded_size blocks =
    Buffer.clear buf;
    Reconcile.encode_message buf (Reconcile.Blocks_reply { blocks });
    Buffer.length buf
  in
  let dag = chain_dag ~signer:(big_signer (1 lsl 20)) 63 in
  let body = List.of_seq (Seq.filter (fun b -> not (Block.is_genesis b)) (Dag.topo_seq dag)) in
  let tip = (List.nth body 62).Block.hash in
  let filler extra label =
    let probe = mk_block ~signer:(big_signer 64) ~t:640 ~parents:[ tip ] label in
    let want = Wire.max_frame + extra - encoded_size body in
    let signer = big_signer (64 + want - Block.byte_size probe) in
    let f = mk_block ~signer ~t:640 ~parents:[ tip ] label in
    check_i ("filler " ^ label) (Wire.max_frame + extra) (encoded_size (body @ [ f ]));
    f
  in
  let exact = filler 0 "exact" and over = filler 1 "over" in
  let next = mk_block ~t:650 ~parents:[ exact.Block.hash ] "next" in
  let dag =
    List.fold_left (fun d b -> Result.get_ok (Dag.add d b)) dag [ exact; over; next ]
  in
  let served asked =
    let hashes = List.map (fun (b : Block.t) -> b.Block.hash) asked in
    match Reconcile.respond dag (Reconcile.Blocks_request { hashes }) with
    | Some (Reconcile.Blocks_reply { blocks }) ->
      let n = List.length blocks in
      check_b "request order kept" true
        (List.equal Block.equal (List.filteri (fun i _ -> i < n) asked) blocks);
      check_b "reply fits a frame" true (encoded_size blocks <= Wire.max_frame);
      if n < List.length asked then
        check_b "the next block would not" true
          (encoded_size (blocks @ [ List.nth asked n ]) > Wire.max_frame);
      n
    | _ -> Alcotest.fail "blocks request"
  in
  check_i "exactly a frame: sent whole" 64 (served (body @ [ exact; next ]));
  check_i "a byte over: one block short" 63 (served (body @ [ over ]))

(* The digest session's one Blocks_request names 66 blocks with 1 MiB
   signatures; the capped reply leaves some out, and the session must
   ask again. *)
let reconcile_capped_reply_converges () =
  let src = chain_dag ~signer:(big_signer (1 lsl 20)) 66 in
  let merged, stats = Reconcile.sync_dags Reconcile.Digest (dag_with_genesis ()) src in
  check_i "every block pulled" (Dag.cardinal src) (Dag.cardinal merged);
  check_i "all 66 received once" 66 stats.Reconcile.blocks_received

(* A bloom reply walks the responder's blocks parents first and stops
   before a frame: from a genesis-only replica, the 66-block chain with
   1 MiB signatures takes two sessions, and the cut loses nothing. *)
let reconcile_bloom_reply_capped () =
  let src = chain_dag ~signer:(big_signer (1 lsl 20)) 66 in
  let dst = dag_with_genesis () in
  (match Reconcile.respond src (snd (Reconcile.start Reconcile.Bloom dst)) with
  | Some (Reconcile.Bloom_reply { blocks = _ :: _ } as reply) ->
    check_b "reply fits a frame" true (Reconcile.message_size reply <= Wire.max_frame)
  | _ -> Alcotest.fail "bloom request");
  let once, _ = Reconcile.sync_dags Reconcile.Bloom dst src in
  check_b "one session falls short" true (Dag.cardinal once < Dag.cardinal src);
  let twice, _ = Reconcile.sync_dags Reconcile.Bloom once src in
  check_i "two sessions pull every block" (Dag.cardinal src) (Dag.cardinal twice)

(* A reply fed as if decoded from its own encoding. *)
let handle_reply session dag m =
  Reconcile.handle_reply session dag ~size:(Reconcile.message_size m) m

(* Bloom gap recovery, fed by hand: [d]'s parents [b] and [c] are asked
   for, and a reply cut after one of them must not end the session. A
   reply that brings nothing new does. *)
let reconcile_bloom_reasks_cut_off () =
  let src, a, b, c, d = diamond () in
  let dst = dag_with_genesis () in
  let hashes xs =
    List.sort Hash_id.compare (List.map (fun (x : Block.t) -> x.Block.hash) xs)
  in
  let asked = function
    | Reconcile.Send (Reconcile.Blocks_request { hashes }) -> hashes
    | Reconcile.Send _ | Reconcile.Finished _ | Reconcile.Ignored ->
      Alcotest.fail "expected a blocks request"
  in
  let session, _ = Reconcile.start Reconcile.Bloom dst in
  let session, step =
    handle_reply session dst (Reconcile.Bloom_reply { blocks = [ d ] })
  in
  let first = asked step in
  check_b "asks for b and c" true (List.equal Hash_id.equal (hashes [ b; c ]) first);
  let kept = Option.get (Dag.find src (List.hd first)) in
  let cut = Option.get (Dag.find src (List.nth first 1)) in
  let session, step =
    handle_reply session dst (Reconcile.Blocks_reply { blocks = [ kept ] })
  in
  check_b "asks again for the cut block, and for a" true
    (List.equal Hash_id.equal (hashes [ a; cut ]) (asked step));
  (match handle_reply session dst (Reconcile.Blocks_reply { blocks = [] }) with
  | _, Reconcile.Finished { new_blocks; _ } ->
    check_i "an empty reply ends it" 2 (List.length new_blocks)
  | _, (Reconcile.Send _ | Reconcile.Ignored) -> Alcotest.fail "an empty reply must end it");
  match handle_reply session dst (Reconcile.Blocks_reply { blocks = [ cut; a ] }) with
  | _, Reconcile.Finished { new_blocks; _ } ->
    check_b "all four pulled" true
      (List.equal Hash_id.equal (hashes [ a; b; c; d ]) (hashes new_blocks))
  | _, (Reconcile.Send _ | Reconcile.Ignored) -> Alcotest.fail "the session must end"

(* ------------------------------------------------------------------ *)
(* Batch intake                                                         *)

let tamper (b : Block.t) ~sig_offset ~flip =
  let raw = Bytes.of_string (Block.to_string b) in
  let at = Bytes.length raw - String.length (Block.signature b) + sig_offset in
  Bytes.set raw at (Char.chr (Char.code (Bytes.get raw at) lxor flip));
  Option.get (Block.of_string (Bytes.to_string raw))

(* A small MSS world: a CA enrols creators B and C in one block, both
   write, the CA revokes C, and C writes once concurrently with the
   revocation and once after it. Beside these, three tampered blocks
   whose W-OTS half (a chain byte flipped) fails, or holds under the
   wrong leaf (a rewritten index) or the wrong key (an outsider signing
   as B). The batch-intake property draws its batches from this list. *)
let mss_world =
  lazy
    (let ca = Signer.mss ~height:4 ~seed:"intake-ca" () in
     let ca_cert = Certificate.self_signed ~signer:ca ~role:"ca" in
     let member seed =
       let s = Signer.mss ~height:3 ~seed () in
       (s, Certificate.issue ~ca:ca_cert ~ca_signer:ca ~subject:s ~role:"member")
     in
     let b_signer, b_cert = member "intake-b" and c_signer, c_cert = member "intake-c" in
     let outsider = Signer.mss ~height:2 ~seed:"intake-outsider" () in
     let mk signer (cert : Certificate.t) t parents txs =
       Block.create ~signer ~creator:cert.Certificate.user_id ~timestamp:(ts t)
         ~parents:(List.map (fun (p : Block.t) -> p.Block.hash) parents)
         txs
     in
     let g =
       Node.genesis_block ~signer:ca ~cert:ca_cert ~timestamp:(ts 0)
         ~extra:[ Transaction.create_crdt ~name:"log" log_spec ]
         ()
     in
     let enrol =
       mk ca ca_cert 10 [ g ] [ Transaction.add_user b_cert; Transaction.add_user c_cert ]
     in
     let b1 = mk b_signer b_cert 20 [ enrol ] [ add_tx "b1" ] in
     let c1 = mk c_signer c_cert 25 [ enrol ] [ add_tx "c1" ] in
     let b2 = mk b_signer b_cert 30 [ b1; c1 ] [ add_tx "b2" ] in
     let revoke = mk ca ca_cert 40 [ b2 ] [ Transaction.revoke_user c_cert ] in
     let c2 = mk c_signer c_cert 45 [ b2 ] [ add_tx "c2" ] in
     let c_revoked = mk c_signer c_cert 50 [ revoke ] [ add_tx "c3" ] in
     let b3 = mk b_signer b_cert 60 [ revoke; c2 ] [ add_tx "b3" ] in
     let b4 = mk b_signer b_cert 70 [ b3 ] [ add_tx "b4" ] in
     let flipped_chain = tamper b4 ~sig_offset:(4 + 32 + 100) ~flip:0x01 in
     let rewritten_index = tamper b2 ~sig_offset:3 ~flip:0x01 in
     let outsider_as_b = mk outsider b_cert 35 [ b1 ] [ add_tx "forged" ] in
     [| g; enrol; b1; c1; b2; c2; revoke; c_revoked; b3; b4; flipped_chain;
        rewritten_index; outsider_as_b |])

let observer () =
  let signer = Signer.oracle ~signature_size:64 ~id:"observer" () in
  Node.create ~signer ~cert:(Certificate.self_signed ~signer ~role:"ca") ()

let resident n =
  Seq.fold_left
    (fun acc (b : Block.t) -> Hash_id.Set.add b.Block.hash acc)
    Hash_id.Set.empty (Dag.blocks_seq (Node.dag n))

(* [receive_all] against today's fold of [receive], batch by batch. *)
let same_intake batches =
  let batched = observer () and each = observer () in
  List.iter
    (fun batch ->
      Node.receive_all batched ~now:(ts 1_000) batch;
      List.iter (fun b -> ignore (Node.receive each ~now:(ts 1_000) b)) batch)
    batches;
  let sa = Node.stats batched and sb = Node.stats each in
  Hash_id.Set.equal (resident batched) (resident each)
  && Csm.converged (Node.csm batched) (Node.csm each)
  && sa.Node.accepted = sb.Node.accepted
  && sa.Node.rejected = sb.Node.rejected
  && sa.Node.duplicates = sb.Node.duplicates
  && Node.pending_count batched = Node.pending_count each

(* In world order every honest block is admitted (C's second block
   arrives before its revocation), and the four others are refused. *)
let intake_tampered_rejected () =
  let w = Lazy.force mss_world in
  let n = observer () in
  Node.receive_all n ~now:(ts 1_000) (Array.to_list w);
  let has i = Dag.mem (Node.dag n) w.(i).Block.hash in
  check_b "every honest block is resident" true
    (List.for_all has [ 0; 1; 2; 3; 4; 5; 6; 8; 9 ]);
  check_b "no tampered or revoked block is resident" false
    (List.exists has [ 7; 10; 11; 12 ]);
  (* Rejected: the flipped chain, the rewritten index, the outsider,
     and C's post-revocation block. *)
  check_i "rejected" 4 (Node.stats n).Node.rejected;
  check_b "same as one receive at a time" true (same_intake [ Array.to_list w ])

(* The pool runs whatever map it is given, reports a failure from any
   domain, and never spawns twice. *)
let domain_pool_map () =
  let xs = Array.init 1000 (fun i -> i) in
  check_b "map = Array.map" true (Domain_pool.map (fun i -> i * i) xs = Array.map (fun i -> i * i) xs);
  check_b "empty" true (Domain_pool.map succ [||] = [||]);
  check_b "one item" true (Domain_pool.map succ [| 41 |] = [| 42 |]);
  let spawned = Domain_pool.spawned () in
  check_i "one worker per spare CPU" (Domain.recommended_domain_count () - 1) spawned;
  (match Domain_pool.map (fun i -> if i = 600 || i = 700 then failwith (string_of_int i) else i) xs with
  | _ -> Alcotest.fail "a failing item must raise"
  | exception Failure m -> check_s "the first failing item" "600" m);
  for _ = 1 to 5 do
    ignore (Domain_pool.map succ xs)
  done;
  check_i "spawned once" spawned (Domain_pool.spawned ())

(* ------------------------------------------------------------------ *)
(* Support / Offload                                                    *)

let support_chain_rules () =
  let _, a, b, _c, _d = diamond () in
  let chain = Support.empty in
  let chain = Result.get_ok (Support.append chain genesis) in
  let chain = Result.get_ok (Support.append chain a) in
  let chain = Result.get_ok (Support.append chain b) in
  check_i "length" 3 (Support.length chain);
  check_b "contains" true (Support.contains chain a.Block.hash);
  check_b "find" true (Support.find chain a.Block.hash = Some a);
  check_b "verify" true (Support.verify chain);
  check_b "duplicate refused" true (Result.is_error (Support.append chain a));
  check_b "payload order" true
    (List.equal Block.equal (Support.payloads chain) [ genesis; a; b ])

let support_detects_order_violation () =
  let _, a, b, _c, _d = diamond () in
  (* Child before parent: chain verifies false. *)
  let chain = Result.get_ok (Support.append Support.empty b) in
  let chain = Result.get_ok (Support.append chain a) in
  check_b "topological violation detected" false (Support.verify chain)

let offload_superpeer () =
  let dag, a, b, c, d = diamond () in
  ignore dag;
  let sp = Offload.create () in
  (* Absorb out of order: buffering must reorder. *)
  Offload.absorb_all sp [ d; b; c ];
  check_i "buffered while parents missing" 3 (Offload.buffered_count sp);
  Offload.absorb_all sp [ genesis; a ];
  check_i "buffer drained" 0 (Offload.buffered_count sp);
  check_i "dag complete" 5 (Dag.cardinal (Offload.dag sp));
  let archived = Offload.flush sp in
  check_i "all archived" 5 archived;
  check_b "chain valid" true (Support.verify (Offload.chain sp));
  check_b "fetch" true (Offload.fetch sp c.Block.hash = Some c);
  check_i "reflush archives nothing" 0 (Offload.flush sp)

let offload_serve_below () =
  let _dag, a, b, c, d = diamond () in
  let sp = Offload.create () in
  Offload.absorb_all sp [ genesis; a; b; c; d ];
  check_b "closure of b, topo order" true
    (List.equal Block.equal [ genesis; a; b ]
       (Offload.serve_below sp [ b.Block.hash ]));
  check_b "closure of b+c shares ancestry" true
    (List.equal Block.equal [ genesis; a; b; c ]
       (Offload.serve_below sp [ b.Block.hash; c.Block.hash ]));
  check_b "unknown hash serves nothing" true
    ([] = Offload.serve_below sp [ Hash_id.digest "nowhere" ]);
  (* A device can replay the reply in order with no buffering. *)
  let n = fresh_node bob_signer bob_cert in
  Node.receive_all n ~now:(ts 1_000) (Offload.serve_below sp [ d.Block.hash ]);
  check_i "full closure replays cleanly" 5 (Dag.cardinal (Node.dag n));
  check_i "nothing left pending" 0 (Node.pending_count n)

(* ------------------------------------------------------------------ *)
(* Node                                                                 *)

let node_buffering_out_of_order () =
  let n = fresh_node bob_signer bob_cert in
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let b = mk_block ~t:20 ~parents:[ a.Block.hash ] "b" in
  (* Child first: buffered; parent arrival drains it. *)
  (match Node.receive n ~now:(ts 100) b with
  | Node.Buffered (Validation.Missing_parents _) -> ()
  | r -> Alcotest.failf "expected buffered, got %a" Node.pp_receive_result r);
  check_i "pending" 1 (Node.pending_count n);
  check_b "parent accepted" true (Node.receive n ~now:(ts 100) a = Node.Accepted);
  check_i "drained" 0 (Node.pending_count n);
  check_i "both in dag" 3 (Dag.cardinal (Node.dag n));
  check_b "duplicate detected" true (Node.receive n ~now:(ts 100) a = Node.Duplicate)

let node_append_reins_frontier () =
  let n = fresh_node bob_signer bob_cert in
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let b = mk_block ~t:11 ~parents:[ genesis.Block.hash ] "b" in
  ignore (Node.receive n ~now:(ts 100) a);
  ignore (Node.receive n ~now:(ts 100) b);
  check_i "two branches" 2 (Hash_id.Set.cardinal (Dag.frontier (Node.dag n)));
  match Node.append n ~now:(ts 200) [] with
  | Ok blk ->
    check_i "reins both branches" 2 (List.length blk.Block.parents);
    check_i "frontier is the new block" 1
      (Hash_id.Set.cardinal (Dag.frontier (Node.dag n)))
  | Error e -> Alcotest.failf "append: %a" Node.pp_append_error e

let node_no_genesis () =
  let n = Node.create ~signer:bob_signer ~cert:bob_cert () in
  match Node.append n ~now:(ts 10) [] with
  | Error Node.No_genesis -> ()
  | _ -> Alcotest.fail "append without genesis"

let node_signer_exhaustion () =
  (* height 2 = 4 one-time keys: the self-signed certificate uses one, the
     genesis block the second, two appends use the rest, and the next
     append must report exhaustion. *)
  let tiny = Signer.mss ~height:2 ~seed:"tiny-node" () in
  let cert = Certificate.self_signed ~signer:tiny ~role:"ca" in
  let g = Node.genesis_block ~signer:tiny ~cert ~timestamp:(ts 0) () in
  let n = Node.create ~signer:tiny ~cert () in
  ignore (Node.receive n ~now:(ts 1) g);
  (match Node.append n ~now:(ts 10) [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "third signature should work: %a" Node.pp_append_error e);
  (match Node.append n ~now:(ts 20) [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fourth signature should work: %a" Node.pp_append_error e);
  match Node.append n ~now:(ts 30) [] with
  | Error Node.Signer_exhausted -> ()
  | _ -> Alcotest.fail "expected exhaustion"

let node_prune_to () =
  let n = fresh_node bob_signer bob_cert in
  for i = 1 to 30 do
    match Node.prepare_transaction n ~crdt:"log" ~op:"add" [ Value.String (string_of_int i) ] with
    | Ok tx -> ignore (Node.append n ~now:(ts (i * 10)) [ tx ])
    | Error _ -> Alcotest.fail "prepare"
  done;
  let before = Dag.byte_size (Node.dag n) in
  let uploaded = ref [] in
  let cap = before / 2 in
  let pruned = Node.prune_to n ~max_bytes:cap ~archived:(fun b -> uploaded := b :: !uploaded) in
  check_b "pruned some" true (pruned > 0);
  check_i "uploads match prunes" pruned (List.length !uploaded);
  check_b "under cap" true (Dag.byte_size (Node.dag n) <= cap);
  check_b "genesis kept" true (Dag.mem (Node.dag n) genesis.Block.hash);
  (* Node still works after pruning. *)
  match Node.append n ~now:(ts 1000) [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "append after prune: %a" Node.pp_append_error e

let reconcile_digest_extension () =
  let dag, _, _, _, _ = diamond () in
  (* An initiator that believes history stops below our max height gets
     the uncovered span back as an extension interval to narrow next. *)
  match
    Reconcile.respond dag (Reconcile.Digest_request { upto = 0; intervals = [] })
  with
  | Some (Reconcile.Digest_reply { splits; leaves }) ->
    check_b "extension interval present" true (splits <> [] || leaves <> []);
    List.iter
      (fun (iv : Reconcile.interval) ->
        check_b "extension starts above upto" true (iv.lo >= 1 && iv.hi >= iv.lo))
      splits;
    List.iter
      (fun (l : Reconcile.leaf) ->
        check_b "leaf starts above upto" true (l.lo >= 1 && l.hi >= l.lo))
      leaves
  | _ -> Alcotest.fail "digest request must elicit a digest reply"

let reconcile_foreign_reply_ignored () =
  let dag, _, _, _, _ = diamond () in
  let base = dag_with_genesis () in
  let is_native mode (r : Reconcile.message) =
    match (mode, r) with
    | Reconcile.Naive, Reconcile.Frontier_reply _
    | Reconcile.Bloom, (Reconcile.Bloom_reply _ | Reconcile.Blocks_reply _)
    | Reconcile.Digest, (Reconcile.Digest_reply _ | Reconcile.Blocks_reply _) ->
      true
    | _, _ -> false
  in
  List.iter
    (fun mode ->
      let session, _req = Reconcile.start mode base in
      (* Replies belonging to every other strategy must be Ignored:
         cross-mode frames carry no session progress. *)
      List.iter
        (fun foreign ->
          match handle_reply session dag foreign with
          | _, Reconcile.Ignored -> ()
          | _, (Reconcile.Send _ | Reconcile.Finished _) ->
            Alcotest.failf "mode %s accepted a foreign reply"
              (Reconcile.Mode.to_string mode))
        (List.filter
           (fun r -> not (is_native mode r))
           [
             Reconcile.Frontier_reply { level = 1; blocks = [] };
             Reconcile.Bloom_reply { blocks = [] };
             Reconcile.Blocks_reply { blocks = [] };
             Reconcile.Digest_reply { splits = []; leaves = [] };
           ]))
    Reconcile.Mode.all

(* ------------------------------------------------------------------ *)
(* Persistence and replay                                               *)

let dag_persistence_roundtrip () =
  let dag, a, _b, _c, _d = diamond () in
  (match Dag.of_string (Dag.to_string dag) with
  | Some dag' ->
    check_i "cardinal" (Dag.cardinal dag) (Dag.cardinal dag');
    check_b "frontier preserved" true
      (Hash_id.Set.equal (Dag.frontier dag) (Dag.frontier dag'));
    check_b "topo order identical" true
      (List.equal Block.equal (Dag.topo_order dag) (Dag.topo_order dag'))
  | None -> Alcotest.fail "dag roundtrip");
  (* With pruned history. *)
  let pruned = Dag.prune dag a.Block.hash in
  (match Dag.of_string (Dag.to_string pruned) with
  | Some dag' ->
    check_b "archived preserved" true (Dag.is_archived dag' a.Block.hash);
    check_b "height of archived preserved" true
      (Dag.height dag' a.Block.hash = Some 1);
    check_i "resident count" (Dag.cardinal pruned) (Dag.cardinal dag')
  | None -> Alcotest.fail "pruned dag roundtrip");
  check_b "garbage rejected" true (Dag.of_string "garbage" = None);
  (* A non-parent-closed image is rejected: drop the genesis bytes by
     encoding only the upper blocks. *)
  let b = Buffer.create 256 in
  Wire.put_list b Block.encode
    (List.filter (fun blk -> not (Block.is_genesis blk)) (Dag.topo_order dag));
  Wire.put_list b (fun _ _ -> ()) [];
  check_b "non-closed image rejected" true (Dag.of_string (Buffer.contents b) = None);
  (* An archived hash listed twice would sit in two height buckets. *)
  let b = Buffer.create 256 in
  Wire.put_list b Block.encode [ genesis ];
  Wire.put_list b
    (fun b height ->
      Wire.put_str b (Hash_id.to_raw a.Block.hash);
      Wire.put_u32 b height)
    [ 1; 2 ];
  check_b "archived hash twice rejected" true (Dag.of_string (Buffer.contents b) = None)

let csm_rebuild_equals_incremental () =
  let n = fresh_node alice_signer alice_cert in
  for i = 1 to 10 do
    match
      Node.prepare_transaction n ~crdt:"log" ~op:"add" [ Value.String (string_of_int i) ]
    with
    | Ok tx -> ignore (Node.append n ~now:(ts (i * 10)) [ tx ])
    | Error _ -> Alcotest.fail "prepare"
  done;
  check_b "rebuild equals incremental" true
    (Csm.converged (Csm.rebuild (Node.dag n)) (Node.csm n));
  (* And across a persisted copy. *)
  match Dag.of_string (Dag.to_string (Node.dag n)) with
  | Some dag' -> check_b "rebuild from persisted" true (Csm.converged (Csm.rebuild dag') (Node.csm n))
  | None -> Alcotest.fail "persist"

let node_key_rotation () =
  let n = fresh_node alice_signer alice_cert in
  let old_id = Node.user_id n in
  (* New key, CA-signed cert. *)
  let signer2 = Signer.oracle ~signature_size:64 ~id:"alice-2" () in
  let cert2 =
    Certificate.issue ~ca:owner_cert ~ca_signer:owner_signer ~subject:signer2
      ~role:"medic"
  in
  (match Node.rotate_key n ~now:(ts 100) ~signer:signer2 ~cert:cert2 with
  | Ok b -> check_i "rotation block has 2 txs" 2 (List.length b.Block.transactions)
  | Error e -> Alcotest.failf "rotate: %a" Node.pp_append_error e);
  check_b "identity switched" false (Hash_id.equal (Node.user_id n) old_id);
  (* The node can still append, now as the new identity. *)
  (match Node.append n ~now:(ts 200) [] with
  | Ok b -> check_b "new creator" true (Hash_id.equal b.Block.creator cert2.Certificate.user_id)
  | Error e -> Alcotest.failf "append after rotate: %a" Node.pp_append_error e);
  (* A second replica accepts the whole history including post-rotation
     blocks, and sees the old identity as revoked. *)
  let m = fresh_node bob_signer bob_cert in
  Node.receive_all m ~now:(ts 300) (Dag.topo_order (Node.dag n));
  check_i "replica has all blocks" (Dag.cardinal (Node.dag n)) (Dag.cardinal (Node.dag m));
  (match Node.membership m with
  | Some mem ->
    check_b "old id revoked" false (Membership.is_member mem old_id);
    check_b "new id member" true (Membership.is_member mem cert2.Certificate.user_id)
  | None -> Alcotest.fail "no membership");
  (* Mismatched cert/signer refused. *)
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Node.rotate_key: certificate does not match the new key")
    (fun () ->
      ignore (Node.rotate_key n ~now:(ts 400) ~signer:alice_signer ~cert:cert2))

let decoder_fuzz () =
  (* No decoder entry point may raise on arbitrary bytes. *)
  let rng = Vegvisir_crypto.Rng.create 321L in
  for _ = 1 to 500 do
    let junk = Vegvisir_crypto.Rng.bytes rng (Vegvisir_crypto.Rng.int rng 200) in
    ignore (Block.of_string junk);
    ignore (Certificate.of_string junk);
    ignore (Dag.of_string junk);
    ignore (Wire.decode_string Reconcile.decode_message junk);
    ignore (Vegvisir_crdt.Value.of_string junk);
    ignore (Vegvisir_crdt.Schema.of_string junk)
  done

(* ------------------------------------------------------------------ *)
(* Incremental DAG indices                                              *)

let dag_incremental_indices () =
  let dag, _a, b, _c, d = diamond () in
  check_i "max_height cached" 3 (Dag.max_height dag);
  check_b "below = self + ancestors" true
    (Hash_id.Set.equal
       (Dag.below dag [ b.Block.hash ])
       (Hash_id.Set.add b.Block.hash (Dag.ancestors dag b.Block.hash)));
  check_b "below of frontier covers everything" true
    (Hash_id.Set.equal (Dag.below dag [ d.Block.hash ]) (Hash_id.Set.of_list
       (List.map (fun (b : Block.t) -> b.Block.hash) (Dag.blocks dag))));
  check_b "below unknown empty" true
    (Hash_id.Set.is_empty (Dag.below dag [ Hash_id.digest "x" ]));
  (* A repeat query answers the same. *)
  check_b "below repeat stable" true
    (Hash_id.Set.equal (Dag.below dag [ b.Block.hash ])
       (Dag.below dag [ b.Block.hash ]));
  check_b "topo_seq mirrors topo_order" true
    (List.equal Block.equal (Dag.topo_order dag)
       (List.of_seq (Dag.topo_seq dag)));
  check_i "blocks_seq covers all" 5 (Seq.length (Dag.blocks_seq dag))

let witness_index_monotone_under_prune () =
  let d0 = dag_with_genesis () in
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let w =
    mk_block ~signer:bob_signer ~creator:bob_cert.Certificate.user_id ~t:20
      ~parents:[ a.Block.hash ] "w"
  in
  let x = mk_block ~t:30 ~parents:[ w.Block.hash ] "x" in
  let dag =
    List.fold_left (fun acc b -> Result.get_ok (Dag.add acc b)) d0 [ a; w; x ]
  in
  let bob = bob_cert.Certificate.user_id in
  check_b "index matches oracle pre-prune" true
    (Hash_id.Set.equal
       (Dag.witness_set dag a.Block.hash)
       (Witness.oracle_witnesses dag a.Block.hash));
  check_b "bob witnesses a" true
    (Hash_id.Set.mem bob (Dag.witness_set dag a.Block.hash));
  let dag = Dag.prune dag w.Block.hash in
  (* The witnessing block is gone: the oracle forgets, the index (a §IV-H
     storage proof is evidence) deliberately does not. *)
  check_b "oracle forgets pruned witness" false
    (Hash_id.Set.mem bob (Witness.oracle_witnesses dag a.Block.hash));
  check_b "index retains pruned witness" true
    (Hash_id.Set.mem bob (Dag.witness_set dag a.Block.hash));
  check_b "pruned block has no witness entry" true
    (Hash_id.Set.is_empty (Dag.witness_set dag w.Block.hash));
  (* A witness arriving after the prune reaches [a] only through the
     archived [w]: the index cannot credit through it, and the oracle
     stops there too. *)
  let owner = owner_cert.Certificate.user_id in
  let v =
    mk_block ~signer:owner_signer ~creator:owner ~t:40 ~parents:[ x.Block.hash ] "v"
  in
  let dag = Result.get_ok (Dag.add dag v) in
  check_b "late witness credited up to the archived hash" true
    (Hash_id.Set.equal (Hash_id.Set.singleton owner)
       (Dag.witness_set dag x.Block.hash));
  check_b "oracle stays within the index after a prune" true
    (Hash_id.Set.subset
       (Witness.oracle_witnesses dag a.Block.hash)
       (Dag.witness_set dag a.Block.hash))

(* The index is built on a snapshot's first query, or just before its
   first prune. Here nothing asks before [w] is pruned, so only the
   build that prune forces can credit bob to [a]: a build after the
   prune walks down from [x] and stops at the archived [w]. *)
let witness_index_built_before_first_prune () =
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let w =
    mk_block ~signer:bob_signer ~creator:bob_cert.Certificate.user_id ~t:20
      ~parents:[ a.Block.hash ] "w"
  in
  let x = mk_block ~t:30 ~parents:[ w.Block.hash ] "x" in
  let dag =
    List.fold_left (fun acc b -> Result.get_ok (Dag.add acc b)) (dag_with_genesis ()) [ a; w; x ]
  in
  let dag = Dag.prune dag w.Block.hash in
  check_b "the pruned block's creator still witnesses its ancestor" true
    (Hash_id.Set.equal
       (Hash_id.Set.singleton bob_cert.Certificate.user_id)
       (Dag.witness_set dag a.Block.hash))

let pending_pool_basics () =
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let b = mk_block ~t:20 ~parents:[ a.Block.hash ] "b" in
  let c = mk_block ~t:30 ~parents:[ b.Block.hash ] "c" in
  let hashes p = List.map (fun (x : Block.t) -> x.Block.hash) (Pending_pool.blocks p) in
  let p = Pending_pool.create ~capacity:2 () in
  check_b "empty" true (Pending_pool.is_empty p);
  let p = Pending_pool.add (Pending_pool.add p a) a in
  check_i "dedup by hash" 1 (Pending_pool.cardinal p);
  let p = Pending_pool.add p b in
  check_b "oldest first" true
    (List.equal Hash_id.equal [ a.Block.hash; b.Block.hash ] (hashes p));
  let p = Pending_pool.add p c in
  check_i "capacity bound" 2 (Pending_pool.cardinal p);
  check_b "oldest evicted" true
    (List.equal Hash_id.equal [ b.Block.hash; c.Block.hash ] (hashes p));
  check_b "evicted not member" false (Pending_pool.mem p a.Block.hash);
  let p = Pending_pool.remove p b.Block.hash in
  check_b "remove" true (List.equal Hash_id.equal [ c.Block.hash ] (hashes p));
  let p = Pending_pool.remove p (Hash_id.digest "x") in
  check_i "remove unknown is a no-op" 1 (Pending_pool.cardinal p);
  check_b "to_seq mirrors blocks" true
    (List.equal Block.equal (Pending_pool.blocks p)
       (List.of_seq (Pending_pool.to_seq p)))

(* At capacity the oldest block goes: re-adding a pooled block keeps
   its age, and an evicted block comes back as the newest. Drains retry
   what is left in insertion order, pass after pass, until a pass makes
   nothing resident. *)
let pending_pool_capacity_eviction () =
  let a = mk_block ~t:10 ~parents:[ genesis.Block.hash ] "a" in
  let b = mk_block ~t:20 ~parents:[ a.Block.hash ] "b" in
  let c = mk_block ~t:30 ~parents:[ b.Block.hash ] "c" in
  let d = mk_block ~t:40 ~parents:[ c.Block.hash ] "d" in
  let hashes bs = List.map (fun (x : Block.t) -> x.Block.hash) bs in
  let check_order what expected got =
    check_b what true (List.equal Hash_id.equal (hashes expected) (hashes got))
  in
  let p = List.fold_left Pending_pool.add (Pending_pool.create ~capacity:3 ()) [ a; b; c ] in
  let p = Pending_pool.add p d in
  check_order "the oldest block is evicted" [ b; c; d ] (Pending_pool.blocks p);
  let p = Pending_pool.add p b in
  check_order "re-adding a pooled block keeps its place" [ b; c; d ] (Pending_pool.blocks p);
  let p = Pending_pool.add p a in
  check_order "the evicted block comes back newest" [ c; d; a ] (Pending_pool.blocks p);
  (* c waits for d, which waits for nothing; a never resolves. *)
  let resident = ref [] and asked = ref [] in
  let p, made =
    Pending_pool.drain p (fun x ->
        asked := x :: !asked;
        let ready = Block.equal x d || (Block.equal x c && List.exists (Block.equal d) !resident) in
        if ready then begin
          resident := x :: !resident;
          Pending_pool.Resident
        end
        else Pending_pool.Waiting)
  in
  check_order "each pass runs in insertion order" [ c; d; a; c; a; a ] (List.rev !asked);
  check_order "made resident in the order the retries made them" [ d; c ] made;
  check_order "the waiting block stays" [ a ] (Pending_pool.blocks p);
  check_i "its count follows" 1 (Pending_pool.cardinal p)

let node_pending_eviction () =
  let n = Node.create ~max_pending:2 ~signer:bob_signer ~cert:bob_cert () in
  (match Node.receive n ~now:(ts 1) genesis with
  | Node.Accepted -> ()
  | r -> Alcotest.failf "genesis not accepted: %a" Node.pp_receive_result r);
  let mk_pair i =
    let p =
      mk_block ~t:(10 * i) ~parents:[ genesis.Block.hash ] (Printf.sprintf "p%d" i)
    in
    let o =
      mk_block ~t:((10 * i) + 5) ~parents:[ p.Block.hash ] (Printf.sprintf "o%d" i)
    in
    (p, o)
  in
  let p1, o1 = mk_pair 1 and p2, o2 = mk_pair 2 and p3, o3 = mk_pair 3 in
  (* Orphans first: all buffered, the oldest evicted at capacity. *)
  Node.receive_all n ~now:(ts 1_000) [ o1; o2; o3 ];
  check_i "pending capped" 2 (Node.pending_count n);
  check_b "dependencies tracked" true
    (Hash_id.Set.mem p2.Block.hash (Node.missing_dependencies n));
  check_b "evicted dependency forgotten" false
    (Hash_id.Set.mem p1.Block.hash (Node.missing_dependencies n));
  Node.receive_all n ~now:(ts 1_000) [ p1; p2; p3 ];
  check_i "survivors drained" 0 (Node.pending_count n);
  (* o1 was evicted; everything else landed. *)
  check_i "all but evicted accepted" 6 (Dag.cardinal (Node.dag n));
  check_b "evicted orphan lost" false (Dag.mem (Node.dag n) o1.Block.hash);
  (* Redelivery recovers it — eviction is back-pressure, not rejection. *)
  ignore (Node.receive n ~now:(ts 1_000) o1);
  check_i "redelivered" 7 (Dag.cardinal (Node.dag n))

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)

(* Random DAG with interleaved adds (3 creators, occasional out-of-order
   timestamps), prunes, and index queries — exercising every cache state
   of the incremental indices. Returns the DAG and whether any prune
   happened (witness-index equality only holds prune-free). *)
let random_indexed_dag script =
  let creators =
    [|
      (alice_signer, alice_cert); (bob_signer, bob_cert); (owner_signer, owner_cert);
    |]
  in
  let dag = ref (dag_with_genesis ()) in
  let resident = ref [ genesis.Block.hash ] in
  let pruned = ref false in
  List.iteri
    (fun i pick ->
      match pick mod 6 with
      | 5 ->
        (* Query between mutations: populate the memoized order cache so
           the next add/prune starts from a non-Dirty state. *)
        ignore (Dag.topo_order !dag)
      | 4 -> begin
        let frontier = Dag.frontier !dag in
        let candidates =
          List.filter
            (fun (b : Block.t) ->
              (not (Block.is_genesis b))
              && not (Hash_id.Set.mem b.Block.hash frontier))
            (Dag.topo_order !dag)
        in
        match candidates with
        | [] -> ()
        | _ :: _ ->
          let b = List.nth candidates (pick mod List.length candidates) in
          dag := Dag.prune !dag b.Block.hash;
          pruned := true;
          resident :=
            List.filter
              (fun h -> not (Hash_id.equal h b.Block.hash))
              !resident
      end
      | r ->
        let signer, cert = creators.(r mod 3) in
        let parents =
          List.filteri (fun j _ -> (j + pick) mod 3 <> 0) !resident
          |> fun l -> if l = [] then [ genesis.Block.hash ] else l
        in
        (* Every 7th insertion back-dates its timestamp, forcing the
           out-of-order slow path of the topo cache. *)
        let t = if pick mod 7 = 0 then i + 2 else (i + 2) * 10 in
        let b =
          mk_block ~signer ~creator:cert.Certificate.user_id ~t ~parents
            (Printf.sprintf "r%d" i)
        in
        (match Dag.add !dag b with
        | Ok d ->
          dag := d;
          resident := b.Block.hash :: !resident
        | Error _ -> ()))
    script;
  (!dag, !pruned)

(* Every known hash whose height is in [lo, hi], by height and then by
   hash, rebuilt from [Dag.height] alone. *)
let heights_oracle dag ~lo ~hi =
  List.map (fun (b : Block.t) -> b.Block.hash) (Dag.blocks dag)
  @ Hash_id.Set.elements (Dag.archived_hashes dag)
  |> List.filter_map (fun h ->
         match Dag.height dag h with
         | Some ht when lo <= ht && ht <= hi -> Some (ht, h)
         | Some _ | None -> None)
  |> List.sort (fun (a, x) (b, y) ->
         match Int.compare a b with 0 -> Hash_id.compare x y | c -> c)
  |> List.map snd

(* One step [i] of a random DAG script: ops 0-4 add a block by one of
   three creators under one or two of the four newest resident blocks
   (every 7th back-dated), 5 prunes a resident block [Dag.prune] takes,
   6 round-trips the DAG through its encoding, and 7-9 are a query for
   the caller to make ([None]). *)
let random_step dag i op arg =
  let creators =
    [| (alice_signer, alice_cert); (bob_signer, bob_cert); (owner_signer, owner_cert) |]
  in
  let newest =
    List.filteri (fun j _ -> j < 4) (List.rev (Dag.topo_order dag))
    |> List.map (fun (b : Block.t) -> b.Block.hash)
  in
  match op with
  | 0 | 1 | 2 | 3 | 4 ->
    let signer, cert = creators.(arg mod 3) in
    let pick k = List.nth newest ((arg / k) mod List.length newest) in
    let parents = List.sort_uniq Hash_id.compare [ pick 1; pick (1 + op) ] in
    let t = if arg mod 7 = 0 then i + 2 else (i + 2) * 10 in
    let b = mk_block ~signer ~creator:cert.Certificate.user_id ~t ~parents (Printf.sprintf "s%d" i) in
    Some (Result.value (Dag.add dag b) ~default:dag)
  | 5 -> begin
    let frontier = Dag.frontier dag in
    match
      List.filter
        (fun (b : Block.t) ->
          not (Block.is_genesis b || Hash_id.Set.mem b.Block.hash frontier))
        (Dag.blocks dag)
    with
    | [] -> Some dag
    | candidates ->
      Some (Dag.prune dag (List.nth candidates (arg mod List.length candidates)).Block.hash)
  end
  | 6 -> Dag.of_string (Dag.to_string dag)
  | _ -> None

(* The round-by-round pull order the one-pass [Reconcile.insertable_order]
   replaced, kept as its oracle: each round emits, in hash order, every
   pending block whose parents are resident, archived or emitted by an
   earlier round; the blocks no round emits follow in hash order. *)
let rounds_order dag blocks =
  let pending =
    List.fold_left
      (fun acc (b : Block.t) ->
        if Dag.mem dag b.Block.hash then acc else Hash_id.Map.add b.Block.hash b acc)
      Hash_id.Map.empty blocks
  in
  let rec rounds emitted out pending =
    let satisfied _ (b : Block.t) =
      List.for_all
        (fun p -> Dag.mem dag p || Dag.is_archived dag p || Hash_id.Set.mem p emitted)
        b.Block.parents
    in
    let ready, rest = Hash_id.Map.partition satisfied pending in
    if Hash_id.Map.is_empty ready then
      List.rev (Hash_id.Map.fold (fun _ b acc -> b :: acc) rest out)
    else
      rounds
        (Hash_id.Map.fold (fun h _ acc -> Hash_id.Set.add h acc) ready emitted)
        (Hash_id.Map.fold (fun _ b acc -> b :: acc) ready out)
        rest
  in
  rounds Hash_id.Set.empty [] pending

(* A random DAG fragment as a pull meets it, from [seed]. Each block
   hangs under one to three earlier blocks or the genesis, or under a
   hash no peer holds (the root of an orphan chain). A block whose
   ancestry is all local may be resident or archived in the puller's
   DAG; the others are in the reply or missing everywhere. The reply
   also carries some resident and archived blocks, repeats some, and
   is shuffled. *)
let pull_fragment seed =
  let rng = Vegvisir_crypto.Rng.create seed in
  let rint n = Vegvisir_crypto.Rng.int rng n in
  let n = 1 + rint 40 in
  let known = Array.make n genesis in
  let local = ref (Hash_id.Set.singleton genesis.Block.hash) in
  let resident = ref [] and archived = ref [] and reply = ref [] in
  for i = 0 to n - 1 do
    let parents =
      if rint 8 = 0 then [ Hash_id.digest ("gone-" ^ string_of_int i) ]
      else
        List.init (1 + rint 3) (fun _ ->
            let j = rint (i + 1) in
            if j = i then genesis.Block.hash else known.(j).Block.hash)
    in
    let b = mk_block ~t:((i + 1) * 10) ~parents (string_of_int i) in
    known.(i) <- b;
    if List.for_all (fun p -> Hash_id.Set.mem p !local) b.Block.parents && rint 3 > 0
    then begin
      local := Hash_id.Set.add b.Block.hash !local;
      if rint 3 = 0 then archived := b.Block.hash :: !archived
      else resident := b :: !resident;
      if rint 4 = 0 then reply := b :: !reply
    end
    else if rint 4 > 0 then reply := b :: !reply
  done;
  let image = Buffer.create 4096 in
  Wire.put_list image Block.encode (genesis :: List.rev !resident);
  Wire.put_list image
    (fun buf h ->
      Wire.put_str buf (Hash_id.to_raw h);
      Wire.put_u32 buf 1)
    !archived;
  let dag = Option.get (Dag.of_string (Buffer.contents image)) in
  let repeats = List.filter (fun _ -> rint 4 = 0) !reply in
  let keyed = List.map (fun b -> (rint 1_000_000, b)) (repeats @ !reply) in
  (dag, List.map snd (List.stable_sort (fun (x, _) (y, _) -> Int.compare x y) keyed))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"receive_all = fold of receive (MSS batches)" ~count:60
      (pair (list_of_size Gen.(0 -- 24) (int_range 0 12)) (int_range 0 3))
      (fun (picks, cut) ->
        (* Random order and duplicates buffer some blocks and drain them
           later; a cut splits the picks into two calls, so a block
           buffered by the first is drained by the second. *)
        let w = Lazy.force mss_world in
        let batch = List.map (fun i -> w.(i)) picks in
        let k = cut * List.length batch / 3 in
        same_intake
          [ List.filteri (fun i _ -> i < k) batch; List.filteri (fun i _ -> i >= k) batch ]);
    Test.make ~name:"intake returns each new block once, parents first" ~count:200
      (triple
         (list_of_size Gen.(1 -- 12) (pair small_nat small_nat))
         (list_of_size Gen.(0 -- 30) small_nat)
         (list_of_size Gen.(0 -- 4) small_nat))
      (fun (shape, picks, cuts) ->
        (* A random DAG over the genesis: each block hangs under one or
           two earlier ones. Picks deliver blocks in any order and with
           repeats (the genesis included, so some are already resident);
           a block whose ancestry is not yet delivered is buffered and
           drained by a later pick, possibly in a later call; cuts split
           the picks into several calls. *)
        let all =
          List.fold_left
            (fun known (p, q) ->
              let n = Array.length known in
              let parents =
                List.sort_uniq Hash_id.compare
                  [ known.(p mod n).Block.hash; known.(q mod n).Block.hash ]
              in
              Array.append known [| mk_block ~t:(n * 10) ~parents (string_of_int n) |])
            [| genesis |] shape
        in
        let batch = List.map (fun i -> all.(i mod Array.length all)) picks in
        let rec split batch = function
          | [] -> [ batch ]
          | c :: cuts ->
            let k = c mod (List.length batch + 1) in
            List.filteri (fun i _ -> i < k) batch
            :: split (List.filteri (fun i _ -> i >= k) batch) cuts
        in
        let n = fresh_node alice_signer alice_cert in
        List.for_all
          (fun call ->
            let before = resident n in
            let made = Node.intake n ~now:(ts 100_000) call in
            let hashes = List.map (fun (b : Block.t) -> b.Block.hash) made in
            let parents_first, _ =
              List.fold_left
                (fun (ok, seen) (b : Block.t) ->
                  ( ok && List.for_all (fun p -> Hash_id.Set.mem p seen) b.Block.parents,
                    Hash_id.Set.add b.Block.hash seen ))
                (true, before) made
            in
            Hash_id.Set.equal (Hash_id.Set.of_list hashes)
              (Hash_id.Set.diff (resident n) before)
            && Hash_id.Set.cardinal (Hash_id.Set.of_list hashes) = List.length made
            && parents_first)
          (split batch cuts));
    Test.make ~name:"Height_table.fold_range = per-height fold" ~count:200
      (triple (list_of_size Gen.(0 -- 20) (int_range 0 3)) (int_range 0 30) (int_range (-1) 30))
      (fun (picks, lo, hi) ->
        (* A random DAG: block i hangs under one of the last four. The
           digest mode's fold over the DAG's height buckets visits what
           [Dag.height] alone says is in [lo, hi], in the same order. *)
        let dag, _ =
          List.fold_left
            (fun (dag, recent) pick ->
              let parent = List.nth recent (pick mod List.length recent) in
              let b = mk_block ~t:((Dag.cardinal dag + 1) * 10) ~parents:[ parent ] "x" in
              (Result.get_ok (Dag.add dag b), List.filteri (fun i _ -> i < 4) (b.Block.hash :: recent)))
            (dag_with_genesis (), [ genesis.Block.hash ])
            picks
        in
        let got = Dag.fold_heights dag ~lo ~hi (fun acc x -> x :: acc) [] in
        List.equal Hash_id.equal (heights_oracle dag ~lo ~hi) (List.rev got));
    Test.make ~name:"range_digest = SHA-256 of the rebuilt buckets" ~count:150
      (list_of_size Gen.(0 -- 40) (pair (int_range 0 9) small_nat))
      (fun script ->
        (* Adds, prunes and encode/decode round trips, with digest
           queries in between. A query asks the current snapshot and an
           older one, which the whole-range memo of a newer snapshot must
           not reach (nor may a query write into the shared [Dag.empty]):
           the whole range, [0, max_height], the responder's extension
           [upto + 1, max_height], and a random interval, each twice so
           the second read is the memo's. *)
        let oracle d ~lo ~hi =
          Vegvisir_crypto.Sha256.digest
            (String.concat "" (List.map Hash_id.to_raw (heights_oracle d ~lo ~hi)))
        in
        let digests_hold d arg =
          let top = Dag.max_height d in
          let upto = arg mod (top + 1) in
          List.for_all
            (fun (lo, hi) ->
              let want = oracle d ~lo ~hi in
              String.equal want (Dag.range_digest d ~lo ~hi)
              && String.equal want (Dag.range_digest d ~lo ~hi))
            [ (0, max_int); (0, top); (upto + 1, top); (arg mod 7, arg mod 11) ]
        in
        let rec go i dag history = function
          | [] -> true
          | (op, arg) :: rest -> begin
            match random_step dag i op arg with
            | Some dag -> go (i + 1) dag (dag :: history) rest
            | None when op < 7 -> false (* the encoding failed to decode *)
            | None ->
              let old = List.nth history (arg mod List.length history) in
              digests_hold dag arg && digests_hold old arg && go (i + 1) dag history rest
          end
        in
        let first = dag_with_genesis () in
        go 0 first [ first; Dag.empty ] script
        && String.equal (Vegvisir_crypto.Sha256.digest "")
             (Dag.range_digest Dag.empty ~lo:0 ~hi:max_int));
    Test.make ~name:"witness index built late = built eagerly" ~count:150
      (list_of_size Gen.(0 -- 40) (pair (int_range 0 9) small_nat))
      (fun script ->
        (* Each snapshot travels with a test-local eager index: every add
           credits its creator to each resident block below it, through
           resident blocks only, and a prune drops the pruned block's own
           entry. Queries come at random points, old snapshots included,
           and the DAG's index, built whenever it first is, must agree. *)
        let eager_add eager dag (b : Block.t) =
          Hash_id.Set.fold
            (fun x eager ->
              if not (Dag.mem dag x) then eager
              else
                let cur = Option.value (Hash_id.Map.find_opt x eager) ~default:Hash_id.Set.empty in
                Hash_id.Map.add x (Hash_id.Set.add b.Block.creator cur) eager)
            (Dag.below dag b.Block.parents) eager
        in
        let agrees (dag, eager) =
          List.for_all
            (fun (b : Block.t) ->
              let want =
                Option.value (Hash_id.Map.find_opt b.Block.hash eager) ~default:Hash_id.Set.empty
              in
              Hash_id.Set.equal
                (Hash_id.Set.remove b.Block.creator want)
                (Dag.witness_set dag b.Block.hash))
            (Dag.blocks dag)
        in
        let rec go i ((dag, eager) as now) history = function
          | [] -> agrees now
          | (op, arg) :: rest -> begin
            (* No round trips here: a decoded DAG starts a new history. *)
            match random_step dag i (if op = 6 then 0 else op) arg with
            | Some next ->
              let eager =
                List.fold_left
                  (fun eager (b : Block.t) ->
                    if Dag.mem dag b.Block.hash then eager else eager_add eager dag b)
                  eager (Dag.blocks next)
              in
              let eager = Hash_id.Set.fold Hash_id.Map.remove (Dag.archived_hashes next) eager in
              let now = (next, eager) in
              go (i + 1) now (now :: history) rest
            | None ->
              agrees now
              && agrees (List.nth history (arg mod List.length history))
              && go (i + 1) now history rest
          end
        in
        let first = (dag_with_genesis (), Hash_id.Map.empty) in
        go 0 first [ first ] script);
    Test.make ~name:"respond is bounded by its request and the DAG" ~count:150
      (pair (list_of_size Gen.(0 -- 24) (int_range 0 11)) int64)
      (fun (script, seed) ->
        (* Every reply fits in c = 8 times the request plus the DAG's
           encoded blocks plus 36 B (a leaf entry) per archived hash;
           replies that ship blocks also fit in a frame. Requests are
           random or hostile: u32 extremes, disordered and inverted
           intervals, repeated and unknown hashes, garbage filters. *)
        let dag, _ = random_indexed_dag script in
        let rng = Vegvisir_crypto.Rng.create seed in
        let int n = Vegvisir_crypto.Rng.int rng n in
        let pick l = List.nth l (int (List.length l)) in
        let u32 () = pick [ 0; 1; 5; 0xFFFF_FFFE; 0xFFFF_FFFF; int 40 ] in
        let hashes =
          Hash_id.digest "unknown"
          :: List.map (fun (b : Block.t) -> b.Block.hash) (Dag.topo_order dag)
          @ Hash_id.Set.elements (Dag.archived_hashes dag)
        in
        let some f = List.init (int 6) (fun _ -> f ()) in
        let interval () =
          { Reconcile.lo = u32 (); hi = u32 (); digest = pick [ ""; "junk"; String.make 32 'd' ] }
        in
        let requests =
          [
            Reconcile.Frontier_request { level = u32 () };
            Reconcile.Bloom_request { filter = String.init (int 40) (fun _ -> Char.chr (int 256)) };
            snd (Reconcile.start Reconcile.Bloom (dag_with_genesis ()));
            Reconcile.Blocks_request { hashes = some (fun () -> pick hashes) };
            Reconcile.Blocks_request { hashes = List.init 1_000 (fun _ -> pick hashes) };
            Reconcile.Digest_request { upto = u32 (); intervals = some interval };
            Reconcile.Digest_request
              { upto = u32 (); intervals = [ { Reconcile.lo = 0; hi = 0xFFFF_FFFF; digest = "" } ] };
            snd (Reconcile.start Reconcile.Digest (dag_with_genesis ()));
          ]
        in
        let budget = Dag.byte_size dag + (36 * Dag.archived_count dag) in
        List.for_all
          (fun request ->
            match Reconcile.respond dag request with
            | None -> true
            | Some reply ->
              let n = Reconcile.message_size reply in
              n <= 8 * (Reconcile.message_size request + budget)
              &&
              match reply with
              | Reconcile.Blocks_reply _ | Reconcile.Bloom_reply _ -> n <= Wire.max_frame
              | _ -> true)
          requests);
    Test.make ~name:"random DAG pairs reconcile to equality" ~count:30
      (pair (list_of_size Gen.(0 -- 12) (int_range 0 2)) int64)
      (fun (script, seed) ->
        (* Two replicas apply random appends/syncs; at the end a mutual
           sync must make the DAGs equal. *)
        let rng = Vegvisir_crypto.Rng.create seed in
        let na = fresh_node alice_signer alice_cert in
        let nb = fresh_node bob_signer bob_cert in
        let t = ref 100 in
        List.iter
          (fun cmd ->
            incr t;
            let target = if Vegvisir_crypto.Rng.bool rng then na else nb in
            match cmd with
            | 0 | 1 -> begin
              match
                Node.prepare_transaction target ~crdt:"log" ~op:"add"
                  [ Value.String (Printf.sprintf "e%d" !t) ]
              with
              | Ok tx -> ignore (Node.append target ~now:(ts (!t * 10)) [ tx ])
              | Error _ -> ()
            end
            | _ ->
              let merged, _ = Reconcile.sync_dags Reconcile.Digest (Node.dag na) (Node.dag nb) in
              Node.receive_all na ~now:(ts 1_000_000) (Dag.topo_order merged))
          script;
        let ma, _ = Reconcile.sync_dags Reconcile.Digest (Node.dag na) (Node.dag nb) in
        let mb, _ = Reconcile.sync_dags Reconcile.Digest (Node.dag nb) (Node.dag na) in
        Node.receive_all na ~now:(ts 2_000_000) (Dag.topo_order ma);
        Node.receive_all nb ~now:(ts 2_000_000) (Dag.topo_order mb);
        Hash_id.Set.equal (Dag.frontier (Node.dag na)) (Dag.frontier (Node.dag nb))
        && Csm.converged (Node.csm na) (Node.csm nb));
    Test.make ~name:"topo_order always lists parents first" ~count:30
      (list_of_size Gen.(0 -- 15) (int_range 0 9))
      (fun picks ->
        (* Random DAG: each new block picks a random subset of current
           frontier plus possibly older blocks as parents. *)
        let dag = ref (dag_with_genesis ()) in
        let all = ref [ genesis.Block.hash ] in
        List.iteri
          (fun i pick ->
            let parents =
              List.filteri (fun j _ -> (j + pick) mod 3 <> 0) !all
              |> fun l -> if l = [] then [ genesis.Block.hash ] else l
            in
            let b = mk_block ~t:((i + 1) * 10) ~parents (string_of_int i) in
            match Dag.add !dag b with
            | Ok d ->
              dag := d;
              all := b.Block.hash :: !all
            | Error _ -> ())
          picks;
        let order = Dag.topo_order !dag in
        let seen = Hashtbl.create 16 in
        List.for_all
          (fun (b : Block.t) ->
            let ok = List.for_all (Hashtbl.mem seen) b.Block.parents in
            Hashtbl.replace seen b.Block.hash ();
            ok)
          order);
    Test.make ~name:"level frontier is monotone in level" ~count:30
      (list_of_size Gen.(0 -- 10) (int_range 0 5))
      (fun picks ->
        let dag = ref (dag_with_genesis ()) in
        let frontier_blocks = ref [ genesis.Block.hash ] in
        List.iteri
          (fun i pick ->
            let parents = [ List.nth !frontier_blocks (pick mod List.length !frontier_blocks) ] in
            let b = mk_block ~t:((i + 1) * 10) ~parents (string_of_int i) in
            match Dag.add !dag b with
            | Ok d ->
              dag := d;
              frontier_blocks := b.Block.hash :: !frontier_blocks
            | Error _ -> ())
          picks;
        let rec check n =
          n > 8
          || Hash_id.Set.subset
               (Dag.level_frontier !dag n)
               (Dag.level_frontier !dag (n + 1))
             && check (n + 1)
        in
        check 1);
    Test.make ~name:"incremental topo order == fresh Kahn (byte-identical)"
      ~count:50
      (list_of_size Gen.(0 -- 25) (int_range 0 30))
      (fun script ->
        let dag, _ = random_indexed_dag script in
        List.equal Block.equal (Dag.topo_order dag) (Dag.Oracle.topo_order dag)
        &&
        (* The persisted image (encode walks the cached order) survives a
           decode/re-encode round trip byte-identically. *)
        let img = Dag.to_string dag in
        match Dag.of_string img with
        | None -> false
        | Some dag' -> String.equal img (Dag.to_string dag'));
    Test.make ~name:"incremental witness index vs descendant-BFS oracle"
      ~count:50
      (list_of_size Gen.(0 -- 25) (int_range 0 30))
      (fun script ->
        let dag, pruned = random_indexed_dag script in
        List.for_all
          (fun (b : Block.t) ->
            let h = b.Block.hash in
            let index = Dag.witness_set dag h in
            let oracle = Witness.oracle_witnesses dag h in
            (* Equal prune-free; the index is a monotone superset after
               pruning (witness facts survive their witnessing blocks). *)
            if pruned then Hash_id.Set.subset oracle index
            else Hash_id.Set.equal oracle index)
          (Dag.blocks dag));
    Test.make ~name:"level frontier vs paper-definition oracle" ~count:50
      (list_of_size Gen.(0 -- 25) (int_range 0 30))
      (fun script ->
        (* Random DAGs, pruned ones included: every level from 1 to past
           the fixpoint matches L(n) = L(n-1) ∪ parents(L(n-1)). *)
        let dag, _ = random_indexed_dag script in
        List.for_all
          (fun n ->
            Hash_id.Set.equal (Dag.level_frontier dag n)
              (Dag.Oracle.level_frontier dag n))
          (List.init (Dag.cardinal dag + 2) (fun i -> i + 1)));
    Test.make ~name:"below vs per-hash ancestors-union oracle" ~count:50
      (pair
         (list_of_size Gen.(0 -- 25) (int_range 0 30))
         (list_of_size Gen.(0 -- 4) (int_range 0 30)))
      (fun (script, seed_picks) ->
        let dag, _ = random_indexed_dag script in
        let order = Dag.topo_order dag in
        let seeds =
          Hash_id.digest "unknown-seed"
          :: List.filter_map
               (fun p ->
                 match List.nth_opt order (p mod max 1 (List.length order)) with
                 | Some b -> Some b.Block.hash
                 | None -> None)
               seed_picks
        in
        Hash_id.Set.equal (Dag.below dag seeds) (Dag.Oracle.below dag seeds));
    Test.make ~name:"reconcile messages survive the wire" ~count:200 int64
      (fun seed ->
        (* Every constructor: decode (encode m) = m, re-encoding is
           byte-identical, message_size agrees with the framed length,
           and no truncation or tag mutation of the frame can raise out
           of the decoder (Wire.decode_string is total). *)
        let rng = Vegvisir_crypto.Rng.create seed in
        let rint n = Vegvisir_crypto.Rng.int rng n in
        let rhash () = Hash_id.digest (Vegvisir_crypto.Rng.bytes rng 8) in
        let rhashes () = List.init (rint 4) (fun _ -> rhash ()) in
        let rblocks () = if rint 2 = 0 then [] else [ genesis ] in
        let rinterval () : Reconcile.interval =
          {
            lo = rint 100;
            hi = rint 100;
            digest = Vegvisir_crypto.Rng.bytes rng (rint 40);
          }
        in
        let rleaf () : Reconcile.leaf =
          { lo = rint 100; hi = rint 100; hashes = rhashes () }
        in
        let msg =
          match rint 9 with
          | 0 -> Reconcile.Frontier_request { level = rint 1000 }
          | 1 ->
            Reconcile.Frontier_reply { level = rint 1000; blocks = rblocks () }
          | 2 ->
            Reconcile.Bloom_request
              { filter = Vegvisir_crypto.Rng.bytes rng (rint 64) }
          | 3 -> Reconcile.Bloom_reply { blocks = rblocks () }
          | 4 -> Reconcile.Blocks_request { hashes = rhashes () }
          | 5 -> Reconcile.Blocks_reply { blocks = rblocks () }
          | 6 ->
            Reconcile.Digest_request
              {
                upto = rint 1000;
                intervals = List.init (rint 4) (fun _ -> rinterval ());
              }
          | 7 ->
            Reconcile.Digest_reply
              {
                splits = List.init (rint 3) (fun _ -> rinterval ());
                leaves = List.init (rint 3) (fun _ -> rleaf ());
              }
          | _ ->
            Reconcile.Trace_context
              {
                trace = Vegvisir_crypto.Rng.bytes rng (rint 24);
                span = Vegvisir_crypto.Rng.bytes rng (rint 24);
              }
        in
        let b = Buffer.create 64 in
        Reconcile.encode_message b msg;
        let bytes = Buffer.contents b in
        let ok_roundtrip =
          match Wire.decode_string Reconcile.decode_message bytes with
          | None -> false
          | Some m' ->
            let b2 = Buffer.create 64 in
            Reconcile.encode_message b2 m';
            Reconcile.message_equal msg m'
            && String.equal bytes (Buffer.contents b2)
            && Reconcile.message_size msg = String.length bytes
        in
        let ok_trunc = ref true in
        for i = 0 to String.length bytes - 1 do
          match Wire.decode_string Reconcile.decode_message (String.sub bytes 0 i) with
          | None | Some _ -> ()
          | exception _ -> ok_trunc := false
        done;
        let garbled = Bytes.of_string bytes in
        if Bytes.length garbled > 0 then Bytes.set garbled 0 (Char.chr (rint 256));
        let ok_garble =
          match
            Wire.decode_string Reconcile.decode_message (Bytes.to_string garbled)
          with
          | None | Some _ -> true
          | exception _ -> false
        in
        ok_roundtrip && !ok_trunc && ok_garble);
    Test.make ~name:"one-pass pull order = round-by-round oracle" ~count:300 int64
      (fun seed ->
        let dag, reply = pull_fragment seed in
        let hashes = List.map (fun (b : Block.t) -> b.Block.hash) in
        List.equal Hash_id.equal
          (hashes (Reconcile.insertable_order dag reply))
          (hashes (rounds_order dag reply)));
  ]

let () =
  Alcotest.run "core"
    [
      ("hash_id", [ Alcotest.test_case "basics" `Quick hash_id_basics ]);
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick wire_roundtrip;
          Alcotest.test_case "malformed" `Quick wire_malformed;
        ] );
      ( "signer",
        [
          Alcotest.test_case "schemes" `Quick signer_schemes;
          Alcotest.test_case "certificates" `Quick certificate_checks;
        ] );
      ( "block",
        [
          Alcotest.test_case "transaction roundtrip" `Quick transaction_roundtrip;
          Alcotest.test_case "roundtrip + tamper" `Quick block_roundtrip_and_tamper;
          Alcotest.test_case "canonical parents" `Quick block_canonical_parents;
          Alcotest.test_case "keeps its bytes" `Quick block_keeps_its_bytes;
        ] );
      ( "dag",
        [
          Alcotest.test_case "basics" `Quick dag_basics;
          Alcotest.test_case "diamond queries" `Quick dag_diamond_queries;
          Alcotest.test_case "level frontier" `Quick dag_level_frontier;
          Alcotest.test_case "level frontier stops at its fixpoint" `Quick
            dag_level_frontier_fixpoint;
          Alcotest.test_case "topo order" `Quick dag_topo_order;
          Alcotest.test_case "prune" `Quick dag_prune;
          Alcotest.test_case "incremental indices" `Quick dag_incremental_indices;
        ] );
      ( "validation",
        [
          Alcotest.test_case "genesis" `Quick validation_genesis;
          Alcotest.test_case "four checks" `Quick validation_four_checks;
          Alcotest.test_case "revocation causality" `Quick validation_revocation_causality;
          Alcotest.test_case "signature index twin" `Quick validation_signature_twin;
        ] );
      ("membership", [ Alcotest.test_case "2P semantics" `Quick membership_two_phase ]);
      ( "csm",
        [
          Alcotest.test_case "genesis + txs" `Quick csm_applies_genesis_and_txs;
          Alcotest.test_case "invalid txs rejected" `Quick csm_rejects_invalid_txs;
          Alcotest.test_case "membership rules" `Quick csm_membership_rules;
          Alcotest.test_case "order determinism" `Quick csm_deterministic_across_orders;
        ] );
      ( "witness",
        [
          Alcotest.test_case "counting" `Quick witness_counting;
          Alcotest.test_case "index monotone under prune" `Quick
            witness_index_monotone_under_prune;
          Alcotest.test_case "index built before the first prune" `Quick
            witness_index_built_before_first_prune;
        ] );
      ( "reconcile",
        [
          Alcotest.test_case "message roundtrip" `Quick reconcile_message_roundtrip;
          Alcotest.test_case "wire goldens" `Quick reconcile_wire_goldens;
          Alcotest.test_case "retired tags 3 and 4" `Quick reconcile_retired_tags;
          Alcotest.test_case "trace identity" `Quick reconcile_trace_identity;
          Alcotest.test_case "modes converge" `Quick reconcile_modes_converge;
          Alcotest.test_case "escalation depth" `Quick reconcile_escalation_depth;
          Alcotest.test_case "respond ignores replies" `Quick reconcile_respond_ignores_replies;
          Alcotest.test_case "block requests + bloom responder" `Quick reconcile_block_requests;
          Alcotest.test_case "digest extension responder" `Quick reconcile_digest_extension;
          Alcotest.test_case "digest wide interval" `Quick reconcile_digest_wide_interval;
          Alcotest.test_case "digest refuses disorder" `Quick reconcile_digest_refuses_disorder;
          Alcotest.test_case "blocks request dedup" `Quick reconcile_blocks_request_dedup;
          Alcotest.test_case "blocks reply fits a frame" `Quick
            reconcile_blocks_reply_fits_a_frame;
          Alcotest.test_case "capped reply converges" `Quick reconcile_capped_reply_converges;
          Alcotest.test_case "bloom reply fits a frame" `Quick reconcile_bloom_reply_capped;
          Alcotest.test_case "bloom re-asks a cut reply" `Quick reconcile_bloom_reasks_cut_off;
          Alcotest.test_case "foreign replies ignored" `Quick reconcile_foreign_reply_ignored;
        ] );
      ( "support",
        [
          Alcotest.test_case "chain rules" `Quick support_chain_rules;
          Alcotest.test_case "order violation" `Quick support_detects_order_violation;
          Alcotest.test_case "superpeer" `Quick offload_superpeer;
          Alcotest.test_case "serve_below" `Quick offload_serve_below;
        ] );
      ( "node",
        [
          Alcotest.test_case "buffering" `Quick node_buffering_out_of_order;
          Alcotest.test_case "pending pool" `Quick pending_pool_basics;
          Alcotest.test_case "pending capacity eviction" `Quick
            pending_pool_capacity_eviction;
          Alcotest.test_case "pending eviction" `Quick node_pending_eviction;
          Alcotest.test_case "frontier reining" `Quick node_append_reins_frontier;
          Alcotest.test_case "no genesis" `Quick node_no_genesis;
          Alcotest.test_case "signer exhaustion" `Quick node_signer_exhaustion;
          Alcotest.test_case "prune_to" `Quick node_prune_to;
          Alcotest.test_case "key rotation" `Quick node_key_rotation;
          Alcotest.test_case "batch intake rejects tampering" `Quick
            intake_tampered_rejected;
          Alcotest.test_case "domain pool" `Quick domain_pool_map;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "dag roundtrip" `Quick dag_persistence_roundtrip;
          Alcotest.test_case "csm rebuild" `Quick csm_rebuild_equals_incremental;
          Alcotest.test_case "decoder fuzz" `Quick decoder_fuzz;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
