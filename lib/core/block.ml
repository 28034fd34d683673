type t = {
  creator : Hash_id.t;
  timestamp : Timestamp.t;
  location : Location.t option;
  parents : Hash_id.t list;
  transactions : Transaction.t list;
  signature : string;
  hash : Hash_id.t;
  size : int;
}

let encode_body b ~creator ~timestamp ~location ~parents ~transactions =
  Wire.put_str b (Hash_id.to_raw creator);
  Wire.put_i64 b (Timestamp.to_ms timestamp);
  Wire.put_opt b Location.encode location;
  Wire.put_list b (fun b p -> Wire.put_str b (Hash_id.to_raw p)) parents;
  Wire.put_list b Transaction.encode transactions

let signing_bytes ~creator ~timestamp ~location ~parents ~transactions =
  let b = Buffer.create 256 in
  Buffer.add_string b "vegvisir-block-v1";
  encode_body b ~creator ~timestamp ~location ~parents ~transactions;
  Buffer.contents b

let encode b t =
  encode_body b ~creator:t.creator ~timestamp:t.timestamp ~location:t.location
    ~parents:t.parents ~transactions:t.transactions;
  Wire.put_str b t.signature

let to_string t =
  let b = Buffer.create 512 in
  encode b t;
  Buffer.contents b

let canonical_parents parents =
  List.sort_uniq Hash_id.compare parents

let create ~(signer : Signer.t) ~creator ~timestamp ?location ~parents
    transactions =
  let parents = canonical_parents parents in
  let body =
    signing_bytes ~creator ~timestamp ~location ~parents ~transactions
  in
  let signature = signer.Signer.sign body in
  let t =
    {
      creator;
      timestamp;
      location;
      parents;
      transactions;
      signature;
      hash = Hash_id.digest "";
      size = 0;
    }
  in
  let raw = to_string t in
  { t with hash = Hash_id.digest raw; size = String.length raw }

let body t =
  signing_bytes ~creator:t.creator ~timestamp:t.timestamp ~location:t.location
    ~parents:t.parents ~transactions:t.transactions

let verify_signature ?ots ~public ~scheme t =
  Signer.verify ?ots ~scheme ~public ~msg:(body t) t.signature

(* lint: parallel-safe *)
let ots_holds t = Signer.ots_holds ~msg:(body t) ~signature:t.signature

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
  let signature = Wire.get_str c in
  let raw = String.sub c.Wire.data start (c.Wire.pos - start) in
  {
    creator;
    timestamp;
    location;
    parents;
    transactions;
    signature;
    hash = Hash_id.digest raw;
    size = String.length raw;
  }

let of_string s = Wire.decode_string decode s
let byte_size t = t.size
let equal a b = Hash_id.equal a.hash b.hash
let compare a b = Hash_id.compare a.hash b.hash

let pp ppf t =
  Fmt.pf ppf "block %a by %a @%a (%d parent(s), %d tx(s))" Hash_id.pp t.hash
    Hash_id.pp t.creator Timestamp.pp t.timestamp (List.length t.parents)
    (List.length t.transactions)
