(* Seeded, pre-signed inputs for the catch-up workload.

   One fixture per run: an owner/CA, a client identity and a few MSS
   creators; a genesis block, an enrolment block, then [replica_blocks]
   creator blocks, the daemon's static replica. Every key, timestamp and
   payload derives from the seed, so two runs of one seed sign
   byte-identical inputs.

   A child process of the benchmark ([--role fixture]) generates and
   signs the fixture before any timing; the measuring process only reads
   the files back. Its heap, GC state and peak RSS are therefore the same
   on every run, and the files are always encoded by the code under
   test, never left over from another build. *)

open Vegvisir
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema

type params = {
  seed : int;
  creators : int;
  replica_blocks : int;  (** creator blocks in the daemon's replica *)
}

type t = {
  dir : string;  (** where the child wrote the fixture *)
  replica : Dag.t;  (** genesis, enrolment and the replica blocks *)
}

let ( // ) = Filename.concat

(* Block timestamps start at a fixed past instant, one millisecond
   apart, so validation's future-skew check always passes and two runs
   of one seed sign identical bytes. *)
let epoch_ms = 1_700_000_000_000L

(* Share of rounds in which two creators append concurrently over the
   same frontier. The value is arbitrary: it only makes the replica a
   DAG with merges rather than a chain. *)
let fork_percent = 20

let client_height = 1

(* The smallest MSS tree height [h] with [n * 2^h >= need]. *)
let height_for ~keys ~need =
  let rec go h = if keys * (1 lsl h) >= need then h else go (h + 1) in
  go 1

(* Each creator key signs its share of the replica. *)
let creator_height p = height_for ~keys:p.creators ~need:p.replica_blocks

(* The owner signs the genesis, one certificate per creator and for the
   client, and the enrolment block. *)
let ca_height p = height_for ~keys:1 ~need:(p.creators + 3)

let crdt = "log"

let key_file ~height ~used ~seed =
  Printf.sprintf "mss %d %d %s\n" height used (Vegvisir_crypto.Hex.encode seed)

let write path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read path = In_channel.with_open_bin path In_channel.input_all

let ca_seed p = Printf.sprintf "perfbench-ca-%d" p.seed
let client_seed p = Printf.sprintf "perfbench-client-%d" p.seed
let creator_seed p i = Printf.sprintf "perfbench-creator-%d-%d" p.seed i

let used (s : Signer.t) ~height =
  match s.Signer.remaining () with Some r -> (1 lsl height) - r | None -> 0

(* Creator keys are independent, so their (dominant) key generation is
   split across two domains. *)
let creator_signers p =
  let gen i = Signer.mss ~height:(creator_height p) ~seed:(creator_seed p i) () in
  let half = p.creators / 2 in
  let d = Domain.spawn (fun () -> List.init half gen) in
  let rest = List.init (p.creators - half) (fun k -> gen (half + k)) in
  Array.of_list (Domain.join d @ rest)

let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let generate p ~dir =
  let rng = Random.State.make [| p.seed; 0x5eed |] in
  let ca_height = ca_height p in
  let ca = Signer.mss ~height:ca_height ~seed:(ca_seed p) () in
  let ca_cert = Certificate.self_signed ~signer:ca ~role:"ca" in
  let client = Signer.mss ~height:client_height ~seed:(client_seed p) () in
  let client_cert =
    Certificate.issue ~ca:ca_cert ~ca_signer:ca ~subject:client ~role:"member"
  in
  let signers = creator_signers p in
  let certs =
    Array.map
      (fun s -> Certificate.issue ~ca:ca_cert ~ca_signer:ca ~subject:s ~role:"member")
      signers
  in
  let ts = ref epoch_ms in
  let tick () =
    ts := Int64.add !ts 1L;
    Timestamp.of_ms !ts
  in
  let genesis =
    Node.genesis_block ~signer:ca ~cert:ca_cert ~timestamp:(tick ())
      ~extra:[ Transaction.create_crdt ~name:crdt (Schema.spec Schema.Gset Value.T_string) ]
      ()
  in
  let enrol =
    Block.create ~signer:ca ~creator:ca_cert.Certificate.user_id ~timestamp:(tick ())
      ~parents:[ genesis.Block.hash ]
      (Array.to_list (Array.map Transaction.add_user certs))
  in
  let capacity = 1 lsl creator_height p in
  let signed = Array.make p.creators 0 in
  let pick () =
    let rec go i k =
      if k = p.creators then failwith "fixture: creator keys exhausted"
      else if signed.(i) < capacity then i
      else go ((i + 1) mod p.creators) (k + 1)
    in
    go (Random.State.int rng p.creators) 0
  in
  let make parents =
    let i = pick () in
    signed.(i) <- signed.(i) + 1;
    let payload = Vegvisir_crypto.Hex.encode (String.init 16 (fun _ -> Char.chr (Random.State.int rng 256))) in
    Block.create ~signer:signers.(i) ~creator:certs.(i).Certificate.user_id
      ~timestamp:(tick ()) ~parents
      [ Transaction.make ~crdt ~op:"add" [ Value.String payload ] ]
  in
  (* Rounds of one block (parents = the whole frontier) or, in
     [fork_percent] of them, two concurrent blocks over the same
     frontier that the next round merges. *)
  let rec stream frontier n acc =
    if n >= p.replica_blocks then List.rev acc
    else if n + 1 < p.replica_blocks && Random.State.int rng 100 < fork_percent then begin
      let a = make frontier in
      let b = make frontier in
      stream [ a.Block.hash; b.Block.hash ] (n + 2) (b :: a :: acc)
    end
    else begin
      let a = make frontier in
      stream [ a.Block.hash ] (n + 1) (a :: acc)
    end
  in
  let blocks = stream [ enrol.Block.hash ] 0 [] in
  let add d b =
    match Dag.add d b with Ok d -> d | Error _ -> failwith "fixture: DAG rejected a block"
  in
  let replica = List.fold_left add Dag.empty (genesis :: enrol :: blocks) in
  mkdir dir;
  mkdir (dir // "daemon");
  mkdir (dir // "client");
  write (dir // "daemon" // "key")
    (key_file ~height:ca_height ~used:(used ca ~height:ca_height) ~seed:(ca_seed p));
  write (dir // "daemon" // "cert") (Certificate.to_string ca_cert);
  write (dir // "daemon" // "ca.cert") (Certificate.to_string ca_cert);
  write (dir // "daemon" // "chain.dag") (Dag.to_string replica);
  write (dir // "client" // "key")
    (key_file ~height:client_height ~used:0 ~seed:(client_seed p));
  write (dir // "client" // "cert") (Certificate.to_string client_cert);
  write (dir // "client" // "ca.cert") (Certificate.to_string ca_cert);
  write (dir // "client" // "genesis.dag") (Dag.to_string (add Dag.empty genesis))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The [--role fixture] child. *)
let role ~dir p =
  generate p ~dir;
  0

(* Generate the fixture in a child process of [exe] and read it back. *)
let build ~exe ~dir p =
  rm_rf dir;
  let args =
    [ "--role"; "fixture"; "--dir"; dir; "--seed"; string_of_int p.seed;
      "--creators"; string_of_int p.creators; "--replica-blocks"; string_of_int p.replica_blocks ]
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
    failwith "fixture: the generator child failed");
  let replica =
    match Dag.of_string (read (dir // "daemon" // "chain.dag")) with
    | Some d -> d
    | None -> failwith "fixture: corrupt chain.dag"
  in
  { dir; replica }

let copy_file src dst = write dst (read src)

(* A node directory for the daemon: the replica under the owner's
   key. *)
let install_daemon t ~dir =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  List.iter
    (fun f -> copy_file (t.dir // "daemon" // f) (dir // f))
    [ "key"; "cert"; "ca.cert"; "chain.dag" ]

(* A node directory for a fresh client replica: its own key and
   certificate over the genesis alone. *)
let install_client t ~dir =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  List.iter (fun f -> copy_file (t.dir // "client" // f) (dir // f)) [ "key"; "cert"; "ca.cert" ];
  copy_file (t.dir // "client" // "genesis.dag") (dir // "chain.dag")
