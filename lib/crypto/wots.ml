type params = {
  chunk_bits : int;
  len1 : int;
  len2 : int;
  len : int;
  chain_max : int;
}

let params ?(chunk_bits = 4) () =
  if chunk_bits < 1 || chunk_bits > 8 then
    invalid_arg "Wots.params: chunk_bits must be in 1..8";
  let chain_max = (1 lsl chunk_bits) - 1 in
  let len1 = (256 + chunk_bits - 1) / chunk_bits in
  let max_checksum = len1 * chain_max in
  let rec digits n acc = if n = 0 then max acc 1 else digits (n lsr chunk_bits) (acc + 1) in
  let len2 = digits max_checksum 0 in
  { chunk_bits; len1; len2; len = len1 + len2; chain_max }

(* A secret key's [len] chain starts, and a signature's [len] chain
   values, each as one string of [len] 32-byte values. *)
type secret_key = { p : params; keys : string }
type public_key = string
type signature = string

(* Extract the [len1] base-2^b chunks of a 32-byte digest, MSB first, then
   append the checksum chunks. *)
let chunks_of_digest p d =
  let get_bit i = (Char.code d.[i / 8] lsr (7 - (i mod 8))) land 1 in
  let msg_chunks =
    Array.init p.len1 (fun i ->
        let start = i * p.chunk_bits in
        let v = ref 0 in
        for j = start to min (start + p.chunk_bits) 256 - 1 do
          v := (!v lsl 1) lor get_bit j
        done;
        (* A final short chunk is left-aligned like the others. *)
        let got = min (start + p.chunk_bits) 256 - start in
        !v lsl (p.chunk_bits - got))
  in
  let checksum = Array.fold_left (fun acc c -> acc + (p.chain_max - c)) 0 msg_chunks in
  let cs_chunks =
    Array.init p.len2 (fun i ->
        (checksum lsr (p.chunk_bits * (p.len2 - 1 - i))) land p.chain_max)
  in
  Array.append msg_chunks cs_chunks

let signature_size p = p.len * 32

(* Chain i of [values] advanced [steps.[i]] steps, all in one kernel
   call. *)
let advance values steps =
  let b = Bytes.of_string values in
  Sha256.iterate ~prefix:"wots-chain" b steps;
  Bytes.unsafe_to_string b

(* The public key is the digest of every chain's end. *)
let public_of_keys p keys =
  Sha256.digest (advance keys (String.make p.len (Char.chr p.chain_max)))

let key_pair p keys = ({ p; keys }, public_of_keys p keys)

let generate p rng =
  key_pair p (String.concat "" (List.init p.len (fun _ -> Rng.bytes rng 32)))

let derive p ~seed =
  key_pair p
    (String.concat ""
       (List.init p.len (fun i -> Sha256.digest_list [ "wots-sk"; seed; string_of_int i ])))

let sign sk msg =
  let cs = chunks_of_digest sk.p (Sha256.digest msg) in
  advance sk.keys (String.init sk.p.len (fun i -> Char.chr cs.(i)))

(* lint: parallel-safe *)
let verify p pk msg s =
  String.length s = signature_size p
  &&
  let cs = chunks_of_digest p (Sha256.digest msg) in
  let ends = advance s (String.init p.len (fun i -> Char.chr (p.chain_max - cs.(i)))) in
  String.equal (Sha256.digest ends) pk

let signature_to_string s = s

let signature_of_string p raw =
  if String.length raw <> signature_size p then None else Some raw
