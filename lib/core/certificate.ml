type t = {
  user_id : Hash_id.t;
  scheme : string;
  public : string;
  role : string;
  issuer : Hash_id.t;
  signature : string;
}

let signing_bytes ~user_id ~scheme ~public ~role ~issuer =
  let b = Buffer.create 128 in
  Buffer.add_string b "vegvisir-cert-v1";
  Wire.put_str b (Hash_id.to_raw user_id);
  Wire.put_str b scheme;
  Wire.put_str b public;
  Wire.put_str b role;
  Wire.put_str b (Hash_id.to_raw issuer);
  Buffer.contents b

let make_signed ~(signer : Signer.t) ~subject_scheme ~subject_public ~role ~issuer =
  let user_id = Signer.user_id_of_public subject_public in
  let body =
    signing_bytes ~user_id ~scheme:subject_scheme ~public:subject_public ~role
      ~issuer
  in
  {
    user_id;
    scheme = subject_scheme;
    public = subject_public;
    role;
    issuer;
    signature = signer.Signer.sign body;
  }

let issue ~ca ~(ca_signer : Signer.t) ~(subject : Signer.t) ~role =
  if not (String.equal ca_signer.Signer.public ca.public) then
    invalid_arg "Certificate.issue: CA signer does not match CA certificate";
  make_signed ~signer:ca_signer ~subject_scheme:subject.Signer.scheme
    ~subject_public:subject.Signer.public ~role ~issuer:ca.user_id

let self_signed ~(signer : Signer.t) ~role =
  let issuer = Signer.user_id_of_public signer.Signer.public in
  make_signed ~signer ~subject_scheme:signer.Signer.scheme
    ~subject_public:signer.Signer.public ~role ~issuer

let is_self_signed t = Hash_id.equal t.user_id t.issuer

let verify ~ca t =
  Hash_id.equal t.user_id (Signer.user_id_of_public t.public)
  && Hash_id.equal t.issuer ca.user_id
  &&
  let body =
    signing_bytes ~user_id:t.user_id ~scheme:t.scheme ~public:t.public
      ~role:t.role ~issuer:t.issuer
  in
  let verifier_public = if is_self_signed t then t.public else ca.public in
  let verifier_scheme = if is_self_signed t then t.scheme else ca.scheme in
  Signer.verify ~scheme:verifier_scheme ~public:verifier_public ~msg:body
    t.signature

let encode b t =
  Wire.put_str b (Hash_id.to_raw t.user_id);
  Wire.put_str b t.scheme;
  Wire.put_str b t.public;
  Wire.put_str b t.role;
  Wire.put_str b (Hash_id.to_raw t.issuer);
  Wire.put_str b t.signature

let decode c =
  let user_id = Hash_id.of_raw_exn (Wire.get_str c) in
  let scheme = Wire.get_str c in
  let public = Wire.get_str c in
  let role = Wire.get_str c in
  let issuer = Hash_id.of_raw_exn (Wire.get_str c) in
  let signature = Wire.get_str c in
  { user_id; scheme; public; role; issuer; signature }

let to_string t =
  let b = Buffer.create 256 in
  encode b t;
  Buffer.contents b

let of_string s = Wire.decode_string decode s

let equal a b = String.equal (to_string a) (to_string b)

let pp ppf t =
  Fmt.pf ppf "cert{user=%a; role=%s; issuer=%a}" Hash_id.pp t.user_id t.role
    Hash_id.pp t.issuer
