let len1 = 64
let len = len1 + 3
let chain_max = 15

(* A secret key's [len] chain starts, and a signature's [len] chain
   values, each as one string of [len] 32-byte values. *)
type secret_key = string
type public_key = string
type signature = string

(* The chain position each of a 32-byte digest's nibbles selects, high
   nibble first, then the 3 nibbles of their checksum, most significant
   first: one byte per chain. *)
let positions d =
  let nibble i =
    let c = Char.code d.[i / 2] in
    if i land 1 = 0 then c lsr 4 else c land 0xf
  in
  let checksum = ref 0 in
  for i = 0 to len1 - 1 do
    checksum := !checksum + chain_max - nibble i
  done;
  String.init len (fun i ->
      Char.chr
        (if i < len1 then nibble i else (!checksum lsr (4 * (len - 1 - i))) land 0xf))

let signature_size = len * 32

(* Chain i of [values] advanced [steps.[i]] steps, all in one kernel
   call. *)
let advance values steps =
  let b = Bytes.of_string values in
  Sha256.iterate ~prefix:"wots-chain" b steps;
  Bytes.unsafe_to_string b

let derive ~seed =
  let keys =
    String.concat ""
      (List.init len (fun i -> Sha256.digest_list [ "wots-sk"; seed; string_of_int i ]))
  in
  (* The public key is the digest of every chain's end. *)
  (keys, Sha256.digest (advance keys (String.make len (Char.chr chain_max))))

let sign keys msg = advance keys (positions (Sha256.digest msg))

(* lint: parallel-safe *)
let verify pk msg s =
  String.length s = signature_size
  &&
  let to_end =
    String.map (fun c -> Char.chr (chain_max - Char.code c)) (positions (Sha256.digest msg))
  in
  String.equal (Sha256.digest (advance s to_end)) pk

let signature_to_string s = s
let signature_of_string raw = if String.length raw <> signature_size then None else Some raw
