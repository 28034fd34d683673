type t = { bits : Bytes.t; k : int }

(* Optimal sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2. *)
let create ~expected ~fp_rate =
  if expected <= 0 then invalid_arg "Bloom.create: expected must be positive";
  if fp_rate <= 0. || fp_rate >= 1. then
    invalid_arg "Bloom.create: fp_rate must be in (0, 1)";
  let ln2 = log 2. in
  let m =
    max 8 (int_of_float (ceil (-.float_of_int expected *. log fp_rate /. (ln2 *. ln2))))
  in
  let k = max 1 (int_of_float (Float.round (float_of_int m /. float_of_int expected *. ln2))) in
  { bits = Bytes.make ((m + 7) / 8) '\x00'; k }

let bit_total t = 8 * Bytes.length t.bits

(* Double hashing: positions h1 + i*h2 mod m, both halves of one SHA-256. *)
let positions t elem =
  let d = Sha256.digest_list [ "bloom"; elem ] in
  let word off =
    let v = ref 0 in
    for i = 0 to 7 do
      v := (!v lsl 8) lor Char.code d.[off + i]
    done;
    !v land max_int
  in
  let h1 = word 0 and h2 = word 8 in
  let m = bit_total t in
  List.init t.k (fun i -> (h1 + (i * (h2 lor 1))) land max_int mod m)

let set_bit t pos =
  let byte = pos / 8 and bit = pos mod 8 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t pos =
  let byte = pos / 8 and bit = pos mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t elem = List.iter (set_bit t) (positions t elem)
let mem t elem = List.for_all (get_bit t) (positions t elem)
let bit_count t = bit_total t
let hash_count t = t.k

(* Wire: u8 k, u24 big-endian byte length, bits. *)
let to_string t =
  let b = Buffer.create (Bytes.length t.bits + 8) in
  Buffer.add_char b (Char.chr (t.k land 0xff));
  let n = Bytes.length t.bits in
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_bytes b t.bits;
  Buffer.contents b

let byte_size t = Bytes.length t.bits + 4

let of_string s =
  if String.length s < 4 then None
  else begin
    let k = Char.code s.[0] in
    let n =
      (Char.code s.[1] lsl 16) lor (Char.code s.[2] lsl 8) lor Char.code s.[3]
    in
    if k < 1 || String.length s <> 4 + n || n = 0 then None
    else Some { bits = Bytes.of_string (String.sub s 4 n); k }
  end
