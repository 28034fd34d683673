(* Unit and property tests for the vegvisir_crypto substrate. *)

open Vegvisir_crypto

let hex = Hex.encode
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* Leaf [leaf] is included under [root] via path [p]. *)
let verify_path ~root ~leaf p = String.equal (Merkle.path_root ~leaf p) root

(* ------------------------------------------------------------------ *)
(* Hex                                                                  *)

let hex_basics () =
  check_s "encode" "00ff10ab" (Hex.encode "\x00\xff\x10\xab");
  check_s "decode" "\x00\xff\x10\xab" (Hex.decode "00ff10ab");
  check_s "decode upper" "\xde\xad" (Hex.decode "DEAD");
  check_b "is_hex yes" true (Hex.is_hex "00aaBB");
  check_b "is_hex odd" false (Hex.is_hex "abc");
  check_b "is_hex bad char" false (Hex.is_hex "zz");
  Alcotest.check_raises "decode odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  check_s "empty" "" (Hex.encode "");
  check_s "empty decode" "" (Hex.decode "")

(* ------------------------------------------------------------------ *)
(* SHA-256, on every kernel this CPU runs                               *)

module type SHA = Sha256.S

(* The kernel this process runs (Sha256 itself) and the OCaml word
   kernel (Sha256.Portable). Each case below takes one of them. *)
let process_kernel = (module Sha256 : SHA)
let ocaml_kernel = (module Sha256.Portable : SHA)

let sha_vectors (module K : SHA) () =
  check_s "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex (K.digest ""));
  check_s "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (K.digest "abc"));
  check_s "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex (K.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_s "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (hex
       (K.digest
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
           ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))

let sha_long (module K : SHA) () =
  (* 10^6 'a' characters (FIPS vector), fed in uneven chunks. *)
  let ctx = K.init () in
  let chunk = String.make 997 'a' in
  let fed = ref 0 in
  while !fed + 997 <= 1_000_000 do
    K.feed ctx chunk;
    fed := !fed + 997
  done;
  K.feed ctx (String.make (1_000_000 - !fed) 'a');
  check_s "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (K.finalize ctx))

let sha_incremental (module K : SHA) () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let one_shot = K.digest data in
  List.iter
    (fun cut ->
      let ctx = K.init () in
      K.feed ctx (String.sub data 0 cut);
      K.feed ctx (String.sub data cut (String.length data - cut));
      check_s (Printf.sprintf "split at %d" cut) (hex one_shot)
        (hex (K.finalize ctx)))
    [ 0; 1; 63; 64; 65; 127; 128; 555; 1000 ]

let sha_digest_list (module K : SHA) () =
  check_s "concat equivalence"
    (hex (K.digest "foobarbaz"))
    (hex (K.digest_list [ "foo"; "bar"; "baz" ]))

let hmac_vectors (module K : SHA) () =
  (* RFC 4231 test case 1 *)
  check_s "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (K.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  (* RFC 4231 test case 2 *)
  check_s "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (K.hmac ~key:"Jefe" "what do ya want for nothing?"));
  (* Long key (> block size) must be hashed first. *)
  let long_key = String.make 131 '\xaa' in
  check_s "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (K.hmac ~key:long_key
          "Test Using Larger Than Block-Size Key - Hash Key First"))

(* Every length 0..256 crosses each padding boundary (55/56 bytes, one
   block, two blocks). The fingerprint hashes the 257 digests of bytes
   ((7i + n) mod 256) for i < n; it was computed independently, with
   Python's hashlib. *)
let sha_all_lengths (module K : SHA) () =
  let input n = String.init n (fun i -> Char.chr (((7 * i) + n) land 0xff)) in
  check_s "fingerprint"
    "8c87921c70e710c77b598f6aed63e551969111a288541684ba32dc1203143503"
    (hex (K.digest (String.concat "" (List.init 257 (fun n -> K.digest (input n))))))

let iterate_rejects (module K : SHA) () =
  let v = String.make 32 'v' in
  List.iter
    (fun (what, prefix, values, steps) ->
      match K.iterate ~prefix (Bytes.of_string values) steps with
      | () -> Alcotest.failf "iterate accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("empty input", "p", "", "\001");
      ("31-byte input", "p", String.make 31 'v', "\001");
      ("33-byte input", "p", String.make 33 'v', "\001");
      ("non-32-byte input at n = 0", "p", "short", "\000");
      ("24-byte prefix", String.make 24 'p', v, "\001");
      ("24-byte prefix, no chains", String.make 24 'p', "", "");
      ("two step counts for one value", "p", v, "\001\001");
      ("one step count for two values", "p", v ^ v, "\001");
      ("a value and no step count", "p", v, "");
    ]

(* The per-step chain that Sha256.iterate replaced, on the OCaml kernel:
   the oracle for every kernel's iterate and for the W-OTS and MSS
   oracles below. *)
let oracle_chain ~prefix v n =
  let rec go v n =
    if n = 0 then v else go (Sha256.Portable.digest_list [ prefix; v ]) (n - 1)
  in
  go v n

(* [iterate] over the chains [vs], advanced [ns] steps, as a list. *)
let iterate_chains (module K : SHA) ~prefix vs ns =
  let b = Bytes.of_string (String.concat "" vs) in
  K.iterate ~prefix b (String.concat "" (List.map (fun n -> String.make 1 (Char.chr n)) ns));
  List.mapi (fun i _ -> Bytes.sub_string b (32 * i) 32) vs

(* One chain through the batch call. *)
let iterate1 kernel ~prefix v n = List.hd (iterate_chains kernel ~prefix [ v ] [ n ])

(* Every prefix length, at step counts around the W-OTS chain lengths. *)
let iterate_oracle (module K : SHA) () =
  let v = K.digest "iterate-oracle" in
  for p = 0 to 23 do
    let prefix = String.init p (fun i -> Char.chr (0x41 + i)) in
    List.iter
      (fun n ->
        check_s (Printf.sprintf "prefix %d, %d steps" p n)
          (hex (oracle_chain ~prefix v n))
          (hex (iterate1 (module K) ~prefix v n)))
      [ 0; 1; 2; 15; 16; 255 ]
  done

(* Batches at every prefix length: an odd count with zero-step chains
   among the others, so both lanes refill and one runs alone at the
   end; and 265 chains, four times a signature's 67 and one more. *)
let iterate_batch_oracle (module K : SHA) () =
  let start i = K.digest (string_of_int i) in
  let check what ~prefix ns =
    let vs = List.mapi (fun i _ -> start i) ns in
    let got = iterate_chains (module K) ~prefix vs ns in
    List.iteri
      (fun i ((v, n), got) ->
        check_s (Printf.sprintf "%s, chain %d of %d (%d steps)" what i (List.length ns) n)
          (hex (oracle_chain ~prefix v n))
          (hex got))
      (List.combine (List.combine vs ns) got)
  in
  for p = 0 to 23 do
    let prefix = String.init p (fun i -> Char.chr (0x61 + i)) in
    check (Printf.sprintf "prefix %d" p) ~prefix [ 0; 3; 255; 0; 16; 15; 1 ]
  done;
  check "no chains" ~prefix:"wots-chain" [];
  check "265 chains" ~prefix:"wots-chain" (List.init 265 (fun i -> if i mod 3 = 0 then 0 else 1))

let sha_cases =
  [
    ("FIPS vectors", `Quick, sha_vectors);
    ("million a", `Slow, sha_long);
    ("incremental splits", `Quick, sha_incremental);
    ("digest_list", `Quick, sha_digest_list);
    ("HMAC RFC 4231", `Quick, hmac_vectors);
    ("every length 0..256", `Quick, sha_all_lengths);
    ("iterate rejects bad input", `Quick, iterate_rejects);
    ("iterate = per-step oracle", `Quick, iterate_oracle);
    ("iterate batch = per-step oracle", `Quick, iterate_batch_oracle);
  ]

let sha_suite kernel =
  List.map (fun (name, speed, case) -> Alcotest.test_case name speed (case kernel)) sha_cases

(* Names the kernel the "sha256" suite ran, and checks it against the
   OCaml kernel once. *)
let process_kernel_named () =
  check_b "a known kernel" true (List.mem Sha256.kernel [ "sha-ni"; "ocaml" ]);
  check_s "agrees with the ocaml kernel" (hex (Sha256.Portable.digest "kernel"))
    (hex (Sha256.digest "kernel"))

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create 43L in
  check_b "different seed differs" true (Rng.int64 a <> Rng.int64 c)

let rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_b "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check_b "float in [0,1)" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let rng_bytes_and_pick () =
  let rng = Rng.create 1L in
  check_i "bytes length" 33 (String.length (Rng.bytes rng 33));
  check_i "bytes empty" 0 (String.length (Rng.bytes rng 0));
  let l = [ 1; 2; 3; 4 ] in
  for _ = 1 to 50 do
    check_b "pick member" true (List.mem (Rng.pick rng l) l)
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []));
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is permutation" (Array.init 50 Fun.id) sorted

let rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.int64 parent) in
  let ys = List.init 10 (fun _ -> Rng.int64 child) in
  check_b "streams differ" true (xs <> ys)

(* ------------------------------------------------------------------ *)
(* Merkle                                                               *)

let merkle_basics () =
  let leaves = [ "a"; "b"; "c"; "d"; "e" ] in
  let t = Merkle.build leaves in
  check_i "size" 5 (Merkle.size t);
  List.iteri
    (fun i leaf ->
      let p = Merkle.path t i in
      check_b (Printf.sprintf "path %d verifies" i) true
        (verify_path ~root:(Merkle.root t) ~leaf p);
      check_b (Printf.sprintf "path %d wrong leaf" i) false
        (verify_path ~root:(Merkle.root t) ~leaf:"z" p))
    leaves;
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves")
    (fun () -> ignore (Merkle.build []));
  Alcotest.check_raises "path out of range"
    (Invalid_argument "Merkle.path: leaf out of range") (fun () ->
      ignore (Merkle.path t 5))

let merkle_single_leaf () =
  let t = Merkle.build [ "only" ] in
  check_b "single leaf path" true
    (verify_path ~root:(Merkle.root t) ~leaf:"only" (Merkle.path t 0));
  check_b "leaf/root distinct from raw hash" true
    (Merkle.root t <> Sha256.digest "only")

let merkle_root_changes () =
  let r1 = Merkle.root (Merkle.build [ "a"; "b" ]) in
  let r2 = Merkle.root (Merkle.build [ "a"; "c" ]) in
  let r3 = Merkle.root (Merkle.build [ "b"; "a" ]) in
  check_b "leaf change changes root" true (r1 <> r2);
  check_b "order matters" true (r1 <> r3)

(* ------------------------------------------------------------------ *)
(* W-OTS                                                                *)

(* w = 16: 64 message nibbles, whose checksum is at most 64 * 15 = 960,
   three nibbles. *)
let wots_params () =
  check_i "chains" 67 Wots.len;
  check_i "chain_max" 15 Wots.chain_max;
  check_i "signature size" (67 * 32) Wots.signature_size;
  let sk, pk = Wots.derive ~seed:"params" in
  let s = Wots.sign sk "payload" in
  check_i "a signature has that size" Wots.signature_size
    (String.length (Wots.signature_to_string s));
  check_b "verifies" true (Wots.verify pk "payload" s);
  check_b "rejects other msg" false (Wots.verify pk "payloae" s)

let wots_deterministic_derive () =
  let _, pk1 = Wots.derive ~seed:"fixed-seed" in
  let _, pk2 = Wots.derive ~seed:"fixed-seed" in
  let _, pk3 = Wots.derive ~seed:"other-seed" in
  check_s "same seed same key" (hex pk1) (hex pk2);
  check_b "different seed different key" true (pk1 <> pk3)

let wots_serialization () =
  let sk, pk = Wots.derive ~seed:"ser" in
  let s = Wots.sign sk "x" in
  let raw = Wots.signature_to_string s in
  check_i "size" Wots.signature_size (String.length raw);
  (match Wots.signature_of_string raw with
  | Some s2 -> check_b "roundtrip verifies" true (Wots.verify pk "x" s2)
  | None -> Alcotest.fail "decode failed");
  check_b "wrong length rejected" true
    (Wots.signature_of_string (raw ^ "x") = None)

let wots_tamper () =
  let sk, pk = Wots.derive ~seed:"tamper" in
  let s = Wots.sign sk "msg" in
  let raw = Bytes.of_string (Wots.signature_to_string s) in
  Bytes.set raw 40 (Char.chr (Char.code (Bytes.get raw 40) lxor 1));
  match Wots.signature_of_string (Bytes.to_string raw) with
  | Some s2 -> check_b "tampered fails" false (Wots.verify pk "msg" s2)
  | None -> Alcotest.fail "decode failed"

(* ------------------------------------------------------------------ *)
(* MSS                                                                  *)

let mss_roundtrip () =
  let sk, pk = Mss.generate ~height:3 ~seed:"mss-seed" in
  check_i "capacity" 8 (Mss.capacity sk);
  check_s "public derivable" (hex pk) (hex (Mss.public_of_secret sk));
  for i = 1 to 8 do
    let msg = "message-" ^ string_of_int i in
    let s = Mss.sign sk msg in
    check_b (Printf.sprintf "sig %d verifies" i) true (Mss.verify pk msg s);
    check_b (Printf.sprintf "sig %d rejects" i) false (Mss.verify pk "other" s);
    check_i "remaining" (8 - i) (Mss.remaining sk)
  done;
  Alcotest.check_raises "exhausted" Mss.Exhausted (fun () ->
      ignore (Mss.sign sk "one too many"))

let mss_serialization () =
  let sk, pk = Mss.generate ~height:4 ~seed:"mss-ser" in
  let s = Mss.sign sk "block" in
  let raw = Mss.signature_to_string s in
  check_i "predicted size" (Mss.signature_size ~height:4) (String.length raw);
  (match Mss.signature_of_string raw with
  | Some s2 -> check_b "roundtrip verifies" true (Mss.verify pk "block" s2)
  | None -> Alcotest.fail "decode failed");
  check_b "garbage rejected" true (Mss.signature_of_string "short" = None)

let mss_cross_key () =
  let sk1, _pk1 = Mss.generate ~height:2 ~seed:"k1" in
  let _sk2, pk2 = Mss.generate ~height:2 ~seed:"k2" in
  let s = Mss.sign sk1 "msg" in
  check_b "cross-key rejected" false (Mss.verify pk2 "msg" s)

(* A proven root names the one key a signature verifies under: it never
   vouches for another key or for a rewritten leaf index. *)
let mss_precheck_never_vouches () =
  let sk, pk = Mss.generate ~height:2 ~seed:"pre-k1" in
  let _, other = Mss.generate ~height:2 ~seed:"pre-k2" in
  let s = Mss.sign sk "msg" in
  let proves key m s = Option.equal String.equal (Mss.proven_root m s) (Some key) in
  check_b "the W-OTS half holds" true (Mss.ots_holds "msg" s);
  check_b "and fails for another message" false (Mss.ots_holds "other" s);
  check_b "proves its key" true (proves pk "msg" s);
  check_b "another message proves none" true (Mss.proven_root "other" s = None);
  check_b "never another key" false (proves other "msg" s);
  (* The index is the big-endian u32 that opens the signature: flipping
     its low bit names the sibling leaf, which the path does not fit. *)
  let raw = Bytes.of_string (Mss.signature_to_string s) in
  Bytes.set raw 3 (Char.chr (Char.code (Bytes.get raw 3) lxor 1));
  match Mss.signature_of_string (Bytes.to_string raw) with
  | None -> Alcotest.fail "rewritten signature must still parse"
  | Some twin ->
    check_b "rewritten index keeps the W-OTS half" true (Mss.ots_holds "msg" twin);
    check_b "rewritten index proves none" true (Mss.proven_root "msg" twin = None)

let mss_height_zero () =
  let sk, pk = Mss.generate ~height:0 ~seed:"tiny" in
  check_i "capacity 1" 1 (Mss.capacity sk);
  let s = Mss.sign sk "only" in
  check_b "verifies" true (Mss.verify pk "only" s);
  Alcotest.check_raises "exhausted after 1" Mss.Exhausted (fun () ->
      ignore (Mss.sign sk "again"))

(* ------------------------------------------------------------------ *)
(* Oracles: W-OTS and MSS verification over the serialized signature,
   built on the per-step chain, all on the OCaml kernel. *)

(* W-OTS with w = 16, bit by bit: 64 four-bit chunks of the digest, MSB
   first, then the three four-bit chunks of their checksum. *)
let oracle_chains = 67
let oracle_chain_max = 15

let oracle_positions msg =
  let d = Sha256.Portable.digest msg in
  let bit i = (Char.code d.[i / 8] lsr (7 - (i mod 8))) land 1 in
  let msg_chunks =
    Array.init 64 (fun i ->
        let v = ref 0 in
        for j = 0 to 3 do
          v := (!v lsl 1) lor bit ((i * 4) + j)
        done;
        !v)
  in
  let checksum = Array.fold_left (fun acc c -> acc + oracle_chain_max - c) 0 msg_chunks in
  Array.append msg_chunks
    (Array.init 3 (fun i -> (checksum lsr (4 * (2 - i))) land oracle_chain_max))

let oracle_wots_verify pk msg chains =
  String.length chains = 32 * oracle_chains
  &&
  let pos = oracle_positions msg in
  String.equal pk
    (Sha256.Portable.digest_list
       (List.init oracle_chains (fun i ->
            oracle_chain ~prefix:"wots-chain" (String.sub chains (32 * i) 32)
              (oracle_chain_max - pos.(i)))))

(* A key and two signatures, on this process's kernel, against the
   per-step oracle on the OCaml kernel; then their fingerprint, the
   SHA-256 of the public key and each signature in turn, which was
   computed independently with Python's hashlib. *)
let wots_keys_fingerprint () =
  let seed = "fp-4" in
  let sk, pk = Wots.derive ~seed in
  let keys =
    List.init oracle_chains (fun i ->
        Sha256.Portable.digest_list [ "wots-sk"; seed; string_of_int i ])
  in
  check_s "key"
    (hex
       (Sha256.Portable.digest_list
          (List.map (fun k -> oracle_chain ~prefix:"wots-chain" k oracle_chain_max) keys)))
    (hex pk);
  let parts =
    List.concat_map
      (fun msg ->
        let s = Wots.signature_to_string (Wots.sign sk msg) in
        let pos = oracle_positions msg in
        check_s
          (Printf.sprintf "signature of %S" msg)
          (hex
             (String.concat ""
                (List.mapi (fun i k -> oracle_chain ~prefix:"wots-chain" k pos.(i)) keys)))
          (hex s);
        [ pk; s ])
      [ ""; "message 4" ]
  in
  check_s "fingerprint" "b74a57a42c4ca8372e53fb9ae36d83038537c32a7937ff870ad9bda783e1be5d"
    (hex (Sha256.Portable.digest (String.concat "" parts)))

(* Layout: u32 index | leaf pk | chains | (side byte, sibling) per level. *)
let oracle_mss_verify pk msg raw =
  let fixed = 4 + 32 + (32 * oracle_chains) in
  let n = String.length raw - fixed in
  n >= 0 && n mod 33 = 0
  &&
  let index = int_of_string ("0x" ^ hex (String.sub raw 0 4)) in
  let levels = n / 33 in
  let side l = raw.[fixed + (33 * l)] in
  let path =
    List.init levels (fun l ->
        (String.sub raw (fixed + (33 * l) + 1) 32,
         if Char.equal (side l) '\x01' then `Right else `Left))
  in
  let leaf_pk = String.sub raw 4 32 in
  levels < 31
  && index < 1 lsl levels
  && List.for_all
       (fun l ->
         let expect = if (index lsr l) land 1 = 1 then '\x00' else '\x01' in
         Char.equal (side l) expect)
       (List.init levels Fun.id)
  && oracle_wots_verify leaf_pk msg (String.sub raw 36 (32 * oracle_chains))
  && verify_path ~root:pk ~leaf:leaf_pk path

let mss_oracle_sigs =
  lazy
    (let sk, pk = Mss.generate ~height:4 ~seed:"mss-oracle" in
     ( pk,
       Array.init 16 (fun i ->
           let msg = "oracle-" ^ string_of_int i in
           (msg, Mss.signature_to_string (Mss.sign sk msg))) ))

(* Every leaf of a height-4 key verifies, under Mss.verify and the
   oracle, and no other value of the 32-bit index verifies with that
   leaf's path: rewriting the index would otherwise mint a second
   signature, and with it a second block hash, for the same signed
   bytes. *)
let mss_index_bound () =
  let pk, sigs = Lazy.force mss_oracle_sigs in
  let verifies msg raw =
    match Mss.signature_of_string raw with
    | Some s -> Mss.verify pk msg s
    | None -> false
  in
  Array.iteri
    (fun i (msg, raw) ->
      check_b (Printf.sprintf "leaf %d verifies" i) true (verifies msg raw);
      check_b (Printf.sprintf "oracle accepts leaf %d" i) true
        (oracle_mss_verify pk msg raw);
      for bit = 0 to 31 do
        let b = Bytes.of_string raw in
        let byte = 3 - (bit / 8) in
        Bytes.set b byte
          (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
        check_b (Printf.sprintf "leaf %d index bit %d" i bit) false
          (verifies msg (Bytes.to_string b))
      done)
    sigs

(* A CA's key and a 200-block chain it signed. *)
let pooled_chain seed =
  let module V = Vegvisir in
  let ca = V.Signer.mss ~height:8 ~seed () in
  let creator = (V.Certificate.self_signed ~signer:ca ~role:"ca").V.Certificate.user_id in
  let rec chain acc parents i =
    if i = 200 then List.rev acc
    else
      let b =
        V.Block.create ~signer:ca ~creator
          ~timestamp:(V.Timestamp.of_ms (Int64.of_int (10 * i)))
          ~parents []
      in
      chain (b :: acc) [ b.V.Block.hash ] (i + 1)
  in
  (ca.V.Signer.public, chain [] [] 0)

(* [b] with the low bit of its signature's byte [at] flipped. *)
let flip_signature_byte (b : Vegvisir.Block.t) at =
  let module V = Vegvisir in
  let raw = Bytes.of_string (V.Block.to_string b) in
  let at = Bytes.length raw - String.length (V.Block.signature b) + at in
  Bytes.set raw at (Char.chr (Char.code (Bytes.get raw at) lxor 1));
  Option.get (V.Block.of_string (Bytes.to_string raw))

(* The batch intake's precheck: Block.proven_root mapped over the
   worker domains, on this process's kernel, gives block for block what
   the OCaml-kernel oracle gives one block at a time. Every 16th block
   has a flipped chain byte, so both answers occur. *)
let pooled_ots_holds () =
  let module V = Vegvisir in
  let pk, chain = pooled_chain "pooled-ots" in
  let blocks =
    Array.of_list
      (List.mapi (fun i b -> if i mod 16 = 5 then flip_signature_byte b (4 + 32 + 100) else b) chain)
  in
  let oracle (b : V.Block.t) =
    let raw = V.Block.signature b in
    let msg =
      V.Block.signing_bytes ~creator:b.V.Block.creator ~timestamp:b.V.Block.timestamp
        ~location:b.V.Block.location ~parents:b.V.Block.parents
        ~transactions:b.V.Block.transactions
    in
    Option.map
      (fun _ ->
        oracle_wots_verify (String.sub raw 4 32) msg (String.sub raw 36 (32 * oracle_chains)))
      (Mss.signature_of_string raw)
  in
  let expected = Array.map oracle blocks in
  check_i "refused by the oracle" 13
    (Array.fold_left (fun n r -> if r = Some false then n + 1 else n) 0 expected);
  Alcotest.(check (array (option string)))
    "pooled = sequential"
    (Array.map (fun r -> if r = Some true then Some pk else None) expected)
    (V.Domain_pool.map V.Block.proven_root blocks)

(* The pooled precheck's root decides exactly what a sequential
   Mss.verify decides, and so does the verdict it gives the block check,
   on valid signatures, a flipped chain byte, a flipped path sibling and
   a wrong leaf index. *)
let pooled_root_is_verify () =
  let module V = Vegvisir in
  let pk, chain = pooled_chain "pooled-root" in
  let chains = 4 + 32 + Wots.signature_size in
  let tamper i b =
    match i mod 4 with
    | 0 -> b
    | 1 -> flip_signature_byte b (4 + 32 + (i mod 2000))
    | 2 -> flip_signature_byte b (chains + 1 + (33 * (i mod 8)) + (i mod 32))
    | _ -> flip_signature_byte b 3
  in
  let blocks = Array.of_list (List.mapi tamper chain) in
  let roots = V.Domain_pool.map V.Block.proven_root blocks in
  Array.iteri
    (fun i (b : V.Block.t) ->
      let msg =
        V.Block.signing_bytes ~creator:b.V.Block.creator ~timestamp:b.V.Block.timestamp
          ~location:b.V.Block.location ~parents:b.V.Block.parents
          ~transactions:b.V.Block.transactions
      in
      let sequential =
        match Mss.signature_of_string (V.Block.signature b) with
        | Some s -> Mss.verify pk msg s
        | None -> false
      in
      let name what = Printf.sprintf "block %d (kind %d): %s" i (i mod 4) what in
      check_b (name "verifies iff untouched") (i mod 4 = 0) sequential;
      check_b (name "root is the key iff it verifies") sequential
        (Option.equal String.equal roots.(i) (Some pk));
      check_b (name "verdict with the root")
        (V.Block.verify_signature ~public:pk ~scheme:"mss" b)
        (V.Block.verify_signature ~proven:roots.(i) ~public:pk ~scheme:"mss" b))
    blocks

(* ------------------------------------------------------------------ *)
(* Sealed box                                                           *)

let sealed_box_roundtrip () =
  let key = Sha256.digest "key" in
  let box = Sealed_box.encrypt ~key ~nonce:"nonce-1" "attack at dawn" in
  check_i "overhead"
    (String.length "attack at dawn" + Sealed_box.overhead)
    (String.length box);
  (match Sealed_box.decrypt ~key box with
  | Some pt -> check_s "roundtrip" "attack at dawn" pt
  | None -> Alcotest.fail "decrypt failed");
  check_b "wrong key fails" true
    (Sealed_box.decrypt ~key:(Sha256.digest "other") box = None)

let sealed_box_tamper () =
  let key = Sha256.digest "key" in
  let box = Sealed_box.encrypt ~key ~nonce:"n" "plaintext" in
  let tampered = Bytes.of_string box in
  Bytes.set tampered 18 (Char.chr (Char.code (Bytes.get tampered 18) lxor 1));
  check_b "tampered rejected" true
    (Sealed_box.decrypt ~key (Bytes.to_string tampered) = None);
  check_b "truncated rejected" true (Sealed_box.decrypt ~key "tiny" = None)

let sealed_box_empty_and_long () =
  let key = Sha256.digest "key" in
  (match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce:"n" "") with
  | Some "" -> ()
  | _ -> Alcotest.fail "empty roundtrip");
  let long = String.make 10_000 'q' in
  match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce:"n2" long) with
  | Some pt -> check_b "long roundtrip" true (String.equal pt long)
  | None -> Alcotest.fail "long roundtrip failed"

(* ------------------------------------------------------------------ *)
(* Bloom                                                                *)

let bloom_basics () =
  let b = Bloom.create ~expected:100 ~fp_rate:0.01 in
  let members = List.init 100 (fun i -> Printf.sprintf "member-%d" i) in
  List.iter (Bloom.add b) members;
  (* No false negatives, ever. *)
  List.iter (fun m -> check_b m true (Bloom.mem b m)) members;
  (* False positives stay near the configured rate. *)
  let fps = ref 0 in
  for i = 0 to 9_999 do
    if Bloom.mem b (Printf.sprintf "absent-%d" i) then incr fps
  done;
  check_b (Printf.sprintf "fp rate %.4f < 0.03" (float_of_int !fps /. 10_000.))
    true
    (float_of_int !fps /. 10_000. < 0.03);
  check_b "k >= 1" true (Bloom.hash_count b >= 1);
  Alcotest.check_raises "bad expected"
    (Invalid_argument "Bloom.create: expected must be positive") (fun () ->
      ignore (Bloom.create ~expected:0 ~fp_rate:0.01))

let bloom_serialization () =
  let b = Bloom.create ~expected:50 ~fp_rate:0.02 in
  List.iter (Bloom.add b) [ "x"; "y"; "z" ];
  (match Bloom.of_string (Bloom.to_string b) with
  | Some b' ->
    check_b "membership preserved" true
      (Bloom.mem b' "x" && Bloom.mem b' "y" && Bloom.mem b' "z");
    check_i "byte size matches" (Bloom.byte_size b) (String.length (Bloom.to_string b))
  | None -> Alcotest.fail "bloom roundtrip");
  check_b "garbage rejected" true (Bloom.of_string "ab" = None)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"hex roundtrip" ~count:200
      (string_of_size Gen.(0 -- 64))
      (fun s -> String.equal (Hex.decode (Hex.encode s)) s);
    Test.make ~name:"sha256 incremental = one-shot" ~count:100
      (pair (string_of_size Gen.(0 -- 300)) (string_of_size Gen.(0 -- 300)))
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.feed ctx a;
        Sha256.feed ctx b;
        String.equal (Sha256.finalize ctx) (Sha256.digest (a ^ b)));
    Test.make ~name:"sha256 digest = feeds split at random cuts" ~count:50
      (pair small_nat small_nat)
      (fun (s1, s2) ->
        List.for_all
          (fun n ->
            let data = String.init n (fun i -> Char.chr ((i * 31) land 0xff)) in
            let c1 = s1 mod (n + 1) in
            let c2 = c1 + (s2 mod (n - c1 + 1)) in
            let ctx = Sha256.init () in
            Sha256.feed ctx (String.sub data 0 c1);
            Sha256.feed ctx (String.sub data c1 (c2 - c1));
            Sha256.feed ctx (String.sub data c2 (n - c2));
            String.equal (Sha256.finalize ctx) (Sha256.digest data))
          (List.init 257 Fun.id));
    Test.make ~name:"iterate = per-step oracle chain" ~count:300
      (triple (string_of_size (Gen.return 32)) (int_range 0 255)
         (string_of_size Gen.(0 -- 23)))
      (fun (v, n, prefix) ->
        String.equal (iterate1 process_kernel ~prefix v n) (oracle_chain ~prefix v n)
        && String.equal
             (iterate1 process_kernel ~prefix:"wots-chain" v n)
             (oracle_chain ~prefix:"wots-chain" v n));
    (* Chain counts 0..270 (a signature has 67), odd counts included,
       and zero-step and 255-step chains mixed in. *)
    Test.make ~name:"iterate batch = per-step oracle, chain by chain" ~count:120
      (pair
         (string_of_size Gen.(0 -- 23))
         (list_of_size
            Gen.(frequency [ (1, return 0); (4, 1 -- 9); (2, 10 -- 80); (1, 260 -- 270) ])
            (make Gen.(frequency [ (2, return 0); (1, return 255); (5, 0 -- 255) ]))))
      (fun (prefix, ns) ->
        let vs = List.mapi (fun i _ -> Sha256.Portable.digest (prefix ^ string_of_int i)) ns in
        List.for_all2
          (fun (v, n) got -> String.equal got (oracle_chain ~prefix v n))
          (List.combine vs ns)
          (iterate_chains process_kernel ~prefix vs ns));
    Test.make ~name:(Sha256.kernel ^ " = ocaml kernel on split feeds") ~count:300
      (pair (string_of_size Gen.(0 -- 256)) (list_of_size Gen.(0 -- 4) small_nat))
      (fun (data, cuts) ->
        let n = String.length data in
        let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (n + 1)) cuts) in
        let b = Bytes.of_string data in
        let hash (module K : SHA) =
          let ctx = K.init () in
          let last =
            List.fold_left (fun from cut -> K.feed_bytes ctx b from (cut - from); cut) 0 cuts
          in
          K.feed_bytes ctx b last (n - last);
          K.finalize ctx
        in
        String.equal (hash process_kernel) (hash ocaml_kernel));
    Test.make ~name:("iterate " ^ Sha256.kernel ^ " = ocaml kernel") ~count:300
      (triple (string_of_size (Gen.return 32)) (int_range 0 255)
         (string_of_size Gen.(0 -- 23)))
      (fun (v, n, prefix) ->
        String.equal (iterate1 process_kernel ~prefix v n) (iterate1 ocaml_kernel ~prefix v n));
    Test.make ~name:"wots verify = oracle under chain corruption" ~count:40
      (pair (string_of_size Gen.(0 -- 40)) (pair small_nat (int_range 0 255)))
      (fun (msg, (off, flip)) ->
        let sk, pk = Wots.derive ~seed:"oracle" in
        let raw = Wots.signature_to_string (Wots.sign sk msg) in
        let b = Bytes.of_string raw in
        let off = off mod Bytes.length b in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor flip));
        List.for_all
          (fun raw ->
            match Wots.signature_of_string raw with
            | None -> false
            | Some s -> Bool.equal (Wots.verify pk msg s) (oracle_wots_verify pk msg raw))
          [ raw; Bytes.to_string b ]);
    Test.make ~name:"mss verify = oracle under field corruption" ~count:150
      (quad (int_range 0 15)
         (oneofl [ `Index; `Leaf_pk; `Chains; `Side; `Sibling ])
         small_nat (int_range 1 255))
      (fun (leaf, field, pick, flip) ->
        let pk, sigs = Lazy.force mss_oracle_sigs in
        let msg, raw = sigs.(leaf) in
        let fixed = 36 + Wots.signature_size in
        let level = pick mod 4 in
        let off =
          match field with
          | `Index -> pick mod 4
          | `Leaf_pk -> 4 + (pick mod 32)
          | `Chains -> 36 + (pick mod (fixed - 36))
          | `Side -> fixed + (33 * level)
          | `Sibling -> fixed + (33 * level) + 1 + (pick mod 32)
        in
        (* A side byte stays decodable only as 0 or 1, so flip its low bit. *)
        let flip = match field with `Side -> 1 | _ -> flip in
        let b = Bytes.of_string raw in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor flip));
        let raw' = Bytes.to_string b in
        let verifies =
          match Mss.signature_of_string raw' with
          | Some s -> Mss.verify pk msg s
          | None -> false
        in
        (not verifies) && Bool.equal verifies (oracle_mss_verify pk msg raw'));
    Test.make ~name:"merkle path verifies for every leaf" ~count:60
      (list_of_size Gen.(1 -- 33) (string_of_size Gen.(0 -- 8)))
      (fun leaves ->
        let t = Merkle.build leaves in
        List.for_all
          (fun i ->
            verify_path ~root:(Merkle.root t) ~leaf:(List.nth leaves i)
              (Merkle.path t i))
          (List.init (List.length leaves) Fun.id));
    Test.make ~name:"wots verifies arbitrary messages" ~count:25
      (string_of_size Gen.(0 -- 100))
      (fun msg ->
        let sk, pk = Wots.derive ~seed:"prop" in
        Wots.verify pk msg (Wots.sign sk msg));
    Test.make ~name:"sealed box roundtrips" ~count:60
      (pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 20)))
      (fun (pt, nonce) ->
        let key = Sha256.digest "prop-key" in
        match Sealed_box.decrypt ~key (Sealed_box.encrypt ~key ~nonce pt) with
        | Some pt' -> String.equal pt pt'
        | None -> false);
    Test.make ~name:"bloom has no false negatives" ~count:50
      (list_of_size Gen.(0 -- 60) (string_of_size Gen.(1 -- 16)))
      (fun elems ->
        let b = Bloom.create ~expected:(max 1 (List.length elems)) ~fp_rate:0.01 in
        List.iter (Bloom.add b) elems;
        List.for_all (Bloom.mem b) elems);
    Test.make ~name:"rng int respects bound" ~count:200
      (pair int64 (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
  ]

let () =
  Alcotest.run "crypto"
    [
      ("hex", [ Alcotest.test_case "basics" `Quick hex_basics ]);
      ( "sha256",
        sha_suite process_kernel
        @ [ Alcotest.test_case ("process kernel: " ^ Sha256.kernel) `Quick process_kernel_named ]
      );
      ("sha-ocaml", sha_suite ocaml_kernel);
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_determinism;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "bytes/pick/shuffle" `Quick rng_bytes_and_pick;
          Alcotest.test_case "split" `Quick rng_split_independent;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "paths" `Quick merkle_basics;
          Alcotest.test_case "single leaf" `Quick merkle_single_leaf;
          Alcotest.test_case "root sensitivity" `Quick merkle_root_changes;
        ] );
      ( "wots",
        [
          Alcotest.test_case "params" `Quick wots_params;
          Alcotest.test_case "deterministic derive" `Quick wots_deterministic_derive;
          Alcotest.test_case "serialization" `Quick wots_serialization;
          Alcotest.test_case "tamper" `Quick wots_tamper;
          Alcotest.test_case "keys and signatures = ocaml oracle" `Quick
            wots_keys_fingerprint;
        ] );
      ( "mss",
        [
          Alcotest.test_case "roundtrip + exhaustion" `Quick mss_roundtrip;
          Alcotest.test_case "serialization" `Quick mss_serialization;
          Alcotest.test_case "cross-key" `Quick mss_cross_key;
          Alcotest.test_case "height zero" `Quick mss_height_zero;
          Alcotest.test_case "index bound to path" `Quick mss_index_bound;
          Alcotest.test_case "precheck never vouches" `Quick mss_precheck_never_vouches;
          Alcotest.test_case
            ("pooled ots_holds on " ^ Sha256.kernel ^ " = ocaml oracle")
            `Quick pooled_ots_holds;
          Alcotest.test_case "pooled root = sequential verify" `Quick
            pooled_root_is_verify;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "basics" `Quick bloom_basics;
          Alcotest.test_case "serialization" `Quick bloom_serialization;
        ] );
      ( "sealed-box",
        [
          Alcotest.test_case "roundtrip" `Quick sealed_box_roundtrip;
          Alcotest.test_case "tamper" `Quick sealed_box_tamper;
          Alcotest.test_case "empty and long" `Quick sealed_box_empty_and_long;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
