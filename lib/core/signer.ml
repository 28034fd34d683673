open Vegvisir_crypto

type t = {
  scheme : string;
  public : string;
  sign : string -> string;
  remaining : unit -> int option;
}

let mss ?(height = 8) ?(used = 0) ~seed () =
  let sk, pk = Mss.generate ~height ~seed in
  Mss.advance sk used;
  {
    scheme = "mss";
    public = pk;
    sign = (fun msg -> Mss.signature_to_string (Mss.sign sk msg));
    remaining = (fun () -> Some (Mss.remaining sk));
  }

let default_oracle_size = Mss.signature_size ~height:8

(* Oracle signatures: sig = H("oracle-sig" || public || msg), padded to the
   requested size. Verification recomputes the prefix. Forgeable by
   construction -- simulation only. *)
let oracle_tag = "oracle-sig"

let oracle_sig ~public ~size msg =
  let core = Sha256.digest_list [ oracle_tag; public; msg ] in
  if size <= 32 then String.sub core 0 size
  else core ^ String.make (size - 32) '\x00'

let oracle ?(signature_size = default_oracle_size) ~id () =
  let public = "oracle:" ^ id in
  {
    scheme = "oracle";
    public;
    sign = (fun msg -> oracle_sig ~public ~size:signature_size msg);
    remaining = (fun () -> None);
  }

(* lint: parallel-safe *)
let proven_root ~msg ~signature =
  Option.bind (Mss.signature_of_string signature) (Mss.proven_root msg)

let verify ~scheme ~public ~msg signature =
  match scheme with
  | "mss" -> Option.equal String.equal (proven_root ~msg ~signature) (Some public)
  | "oracle" ->
    let size = String.length signature in
    size >= 1
    && String.equal signature (oracle_sig ~public ~size msg)
  | _ -> false

let user_id_of_public public = Hash_id.digest public
