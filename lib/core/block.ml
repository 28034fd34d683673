type t = {
  creator : Hash_id.t;
  timestamp : Timestamp.t;
  location : Location.t option;
  parents : Hash_id.t list;
  transactions : Transaction.t list;
  hash : Hash_id.t;
  bytes : string;
  signature_at : int;
}

let signing_tag = "vegvisir-block-v1"

let encode_body b ~creator ~timestamp ~location ~parents ~transactions =
  Wire.put_str b (Hash_id.to_raw creator);
  Wire.put_i64 b (Timestamp.to_ms timestamp);
  Wire.put_opt b Location.encode location;
  Wire.put_list b (fun b p -> Wire.put_str b (Hash_id.to_raw p)) parents;
  Wire.put_list b Transaction.encode transactions

let signing_bytes ~creator ~timestamp ~location ~parents ~transactions =
  let b = Buffer.create 256 in
  Buffer.add_string b signing_tag;
  encode_body b ~creator ~timestamp ~location ~parents ~transactions;
  Buffer.contents b

(* The encoding is the body, then the signature as a length-prefixed
   string: [signature_at] is where the signature's own bytes start. *)
let encode b t = Buffer.add_string b t.bytes
let to_string t = t.bytes

let signature t =
  String.sub t.bytes t.signature_at (String.length t.bytes - t.signature_at)

let body t = signing_tag ^ String.sub t.bytes 0 (t.signature_at - 4)

let canonical_parents parents =
  List.sort_uniq Hash_id.compare parents

let create ~(signer : Signer.t) ~creator ~timestamp ?location ~parents
    transactions =
  let parents = canonical_parents parents in
  let b = Buffer.create 512 in
  encode_body b ~creator ~timestamp ~location ~parents ~transactions;
  let signature = signer.Signer.sign (signing_tag ^ Buffer.contents b) in
  let signature_at = Buffer.length b + 4 in
  Wire.put_str b signature;
  let bytes = Buffer.contents b in
  {
    creator;
    timestamp;
    location;
    parents;
    transactions;
    hash = Hash_id.digest bytes;
    bytes;
    signature_at;
  }

(* A proven root decides an MSS check whole (see {!Signer.proven_root});
   any other scheme, or no precheck, runs the full check. *)
let verify_signature ?proven ~public ~scheme t =
  match proven with
  | Some root when String.equal scheme "mss" ->
    Option.equal String.equal root (Some public)
  | Some _ | None -> Signer.verify ~scheme ~public ~msg:(body t) (signature t)

(* lint: parallel-safe *)
let proven_root t = Signer.proven_root ~msg:(body t) ~signature:(signature t)

let is_genesis t = t.parents = []

let decode c =
  let start = c.Wire.pos in
  let creator = Hash_id.of_raw_exn (Wire.get_str c) in
  let timestamp = Timestamp.of_ms (Wire.get_i64 c) in
  let location = Wire.get_opt c Location.decode in
  let parents =
    Wire.get_list c (fun c -> Hash_id.of_raw_exn (Wire.get_str c))
  in
  if not (List.equal Hash_id.equal parents (canonical_parents parents)) then
    raise (Wire.Malformed "block parents not canonical");
  let transactions = Wire.get_list c Transaction.decode in
  let signature_at = c.Wire.pos + 4 - start in
  Wire.skip c (Wire.get_u32 c);
  let bytes = String.sub c.Wire.data start (c.Wire.pos - start) in
  {
    creator;
    timestamp;
    location;
    parents;
    transactions;
    hash = Hash_id.digest bytes;
    bytes;
    signature_at;
  }

let of_string s = Wire.decode_string decode s
let byte_size t = String.length t.bytes
let equal a b = Hash_id.equal a.hash b.hash
let compare a b = Hash_id.compare a.hash b.hash

let pp ppf t =
  Fmt.pf ppf "block %a by %a @%a (%d parent(s), %d tx(s))" Hash_id.pp t.hash
    Hash_id.pp t.creator Timestamp.pp t.timestamp (List.length t.parents)
    (List.length t.transactions)
