exception Exhausted

type secret_key = {
  seed : string;
  tree : Merkle.tree;
  mutable next : int;
}

type public_key = string

type signature = {
  index : int;
  leaf_pk : string; (* W-OTS public key of the consumed leaf *)
  ots : Wots.signature;
  path : Merkle.path;
}

let leaf_seed seed i = Sha256.digest_list [ "mss-leaf"; seed; string_of_int i ]

let generate ~height ~seed =
  if height < 0 || height > 20 then invalid_arg "Mss.generate: height must be in 0..20";
  let n = 1 lsl height in
  let leaf_pks =
    List.init n (fun i ->
        let _, pk = Wots.derive ~seed:(leaf_seed seed i) in
        pk)
  in
  let tree = Merkle.build leaf_pks in
  ({ seed; tree; next = 0 }, Merkle.root tree)

let capacity sk = Merkle.size sk.tree
let remaining sk = capacity sk - sk.next
let used sk = sk.next

let advance sk n =
  if n < sk.next then invalid_arg "Mss.advance: cannot rewind a one-time key";
  if n > capacity sk then invalid_arg "Mss.advance: beyond key capacity";
  sk.next <- n
let public_of_secret sk = Merkle.root sk.tree

let sign sk msg =
  if sk.next >= capacity sk then raise Exhausted;
  let i = sk.next in
  sk.next <- i + 1;
  let ots_sk, leaf_pk = Wots.derive ~seed:(leaf_seed sk.seed i) in
  { index = i; leaf_pk; ots = Wots.sign ots_sk msg; path = Merkle.path sk.tree i }

(* The path hashes [leaf_pk] up to the root, but only [index] says which
   leaf that was, and the index is part of the signed bytes a block
   hash covers. MSS trees are full, so leaf [index]'s sibling at level l
   sits on the side given by bit l of the index, and the path has one
   entry per bit: binding the sides to the bits (and requiring no bits
   beyond the path) leaves exactly one index that verifies. *)
let index_matches_path index path =
  let rec go idx = function
    | [] -> idx = 0
    | (_, side) :: rest ->
      let right_child = idx land 1 = 1 in
      (match side with `Left -> right_child | `Right -> not right_child)
      && go (idx lsr 1) rest
  in
  index >= 0 && go index path

(* The costly half of a check: rebuild the W-OTS chains and compare
   them with the leaf key the signature itself carries. It needs no
   public key, so a batch can run it before it knows who signed. *)

(* lint: parallel-safe *)
let ots_holds msg s = Wots.verify s.leaf_pk msg s.ots

(* The one key a signature verifies under: the root its path leads to
   from the leaf key, once the index names that leaf and the chains
   over [msg] rebuild the key. *)

(* lint: parallel-safe *)
let proven_root msg s =
  if index_matches_path s.index s.path && ots_holds msg s then
    Some (Merkle.path_root ~leaf:s.leaf_pk s.path)
  else None

(* lint: parallel-safe *)
let verify pk msg s = Option.equal String.equal (proven_root msg s) (Some pk)

(* Wire layout: u32 index | 32-byte leaf pk | W-OTS chains | path entries,
   each entry = side byte (0 left / 1 right) + 32-byte sibling. *)

let put_u32 b v =
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32 s off =
  ((Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8))
  lor Char.code s.[off + 3]

let signature_to_string s =
  let b = Buffer.create 4096 in
  put_u32 b s.index;
  Buffer.add_string b s.leaf_pk;
  Buffer.add_string b (Wots.signature_to_string s.ots);
  List.iter
    (fun (sib, side) ->
      Buffer.add_char b (match side with `Left -> '\x00' | `Right -> '\x01');
      Buffer.add_string b sib)
    s.path;
  Buffer.contents b

let signature_of_string raw =
  let ots_len = Wots.signature_size in
  let fixed = 4 + 32 + ots_len in
  if String.length raw < fixed || (String.length raw - fixed) mod 33 <> 0 then
    None
  else begin
    let index = get_u32 raw 0 in
    let leaf_pk = String.sub raw 4 32 in
    match Wots.signature_of_string (String.sub raw 36 ots_len) with
    | None -> None
    | Some ots ->
      let n_path = (String.length raw - fixed) / 33 in
      let ok = ref true in
      let path =
        List.init n_path (fun i ->
            let off = fixed + (33 * i) in
            let side =
              match raw.[off] with
              | '\x00' -> `Left
              | '\x01' -> `Right
              | _ ->
                ok := false;
                `Left
            in
            (String.sub raw (off + 1) 32, side))
      in
      if !ok then Some { index; leaf_pk; ots; path } else None
  end

let signature_size ~height = 4 + 32 + Wots.signature_size + (33 * height)
