open Vegvisir
module Schema = Vegvisir_crdt.Schema
module Obs = Vegvisir_obs

(* The signer is embedded in the node; to persist its position a handle
   keeps it at hand, with the height and seed that re-derive it. Each
   handle saves the position of its own signer. *)
type key = { signer : Signer.t; height : int; seed : string }

type t = {
  dir : string;
  node : Node.t;
  ca_cert : Certificate.t;
  key : key;
  refused : Block.t list;
}

let ( let* ) = Result.bind
let ( // ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* Telemetry: every node directory keeps an append-only trace.jsonl of
   observability events, timestamped with the sanctioned host clock
   (Unix_compat). `vegvisir-cli stats` and `vegvisir-cli trace` replay
   these files; merging the files of two synced directories yields a
   block's full cross-node causal timeline. Recording is best-effort —
   a read-only filesystem must not break the actual operation. *)

let trace_file = "trace.jsonl"
let trace_path t = t.dir // trace_file
let node_name t = Hash_id.short (Node.user_id t.node)

(* Buffered journaling: a long-lived daemon multiplexing dozens of
   sessions would otherwise open/append/close trace.jsonl once per
   event. When a directory opts in, encoded lines accumulate here and
   reach disk on [flush_trace] (and on every [save]). Keyed by dir, not
   by handle, so a client that reloads its directory for every exchange
   keeps buffering into the same lines: process-lifetime cache only. *)
let trace_buffers : (string, Buffer.t) Hashtbl.t = Hashtbl.create 4

let append_lines t lines =
  match
    Out_channel.with_open_gen
      [ Open_wronly; Open_append; Open_creat ]
      0o644 (trace_path t)
      (fun oc -> Out_channel.output_string oc lines)
  with
  | () -> ()
  | exception Sys_error _ -> ()

let flush_trace t =
  match Hashtbl.find_opt trace_buffers t.dir with
  | None -> ()
  | Some buf ->
    if Buffer.length buf > 0 then begin
      let lines = Buffer.contents buf in
      Buffer.clear buf;
      append_lines t lines
    end

let buffer_telemetry t on =
  if on then begin
    if not (Hashtbl.mem trace_buffers t.dir) then
      Hashtbl.replace trace_buffers t.dir (Buffer.create 4096)
  end
  else begin
    flush_trace t;
    Hashtbl.remove trace_buffers t.dir
  end

let record_all t events =
  match events with
  | [] -> ()
  | _ :: _ -> begin
    let ts = Unix_compat.now_ms () in
    match Hashtbl.find_opt trace_buffers t.dir with
    | Some buf -> Obs.Event.to_json_lines buf ~ts events
    | None ->
      let buf = Buffer.create 256 in
      Obs.Event.to_json_lines buf ~ts events;
      append_lines t (Buffer.contents buf)
  end

let record t ev = record_all t [ ev ]

let load_trace ~dir =
  match In_channel.with_open_bin (dir // trace_file) In_channel.input_all with
  | exception Sys_error _ -> []
  | contents ->
    String.split_on_char '\n' contents
    |> List.filter_map Obs.Event.of_json

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let write_file path contents =
  match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents) with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* Key file: "mss <height> <used> <seed-hex>\n". The seed is secret key
   material; a real deployment would keep it in a TEE (paper §V). *)
let encode_key ~height ~used ~seed =
  Printf.sprintf "mss %d %d %s\n" height used (Vegvisir_crypto.Hex.encode seed)

let decode_key contents =
  match String.split_on_char ' ' (String.trim contents) with
  | [ "mss"; height; used; seed_hex ] -> begin
    match
      (int_of_string_opt height, int_of_string_opt used, Vegvisir_crypto.Hex.is_hex seed_hex)
    with
    | Some height, Some used, true ->
      Ok (height, used, Vegvisir_crypto.Hex.decode seed_hex)
    | _ -> Error "malformed key file"
  end
  | _ -> Error "malformed key file"

let now_ts () = Timestamp.of_seconds (Unix_compat.now ())

(* Blocks arriving now may be stamped slightly ahead of our clock; admit
   the same skew the validation layer tolerates. *)
let intake_ts () = Timestamp.add_ms (now_ts ()) Validation.default_max_skew_ms

(* A local store's blocks were admitted once already, some of them
   stamped by this node's own clock: re-admit them against a clock no
   earlier than the newest of them, or a block appended while the clock
   ran ahead is refused on reload and the next save drops it. Signature,
   parent and membership checks still apply; blocks from a peer
   ([deliver]) meet the wall clock. *)
let stored_ts dag =
  Seq.fold_left
    (fun now (b : Block.t) -> Timestamp.max now b.Block.timestamp)
    (intake_ts ()) (Dag.blocks_seq dag)

let key_used { signer; height; seed = _ } =
  match signer.Signer.remaining () with
  | Some r -> (1 lsl height) - r
  | None -> 0

(* The resident DAG plus every block [load] refused, so a save never
   erases a stored block; [verify] keeps naming them. One that has
   become resident since adds nothing. *)
let stored_dag t =
  List.fold_left
    (fun dag b -> match Dag.add dag b with Ok dag -> dag | Error _ -> dag)
    (Node.dag t.node) t.refused

let save_parts t =
  let* () = write_file (t.dir // "chain.dag") (Dag.to_string (stored_dag t)) in
  let* () =
    write_file (t.dir // "key")
      (encode_key ~height:t.key.height ~used:(key_used t.key) ~seed:t.key.seed)
  in
  let* () = write_file (t.dir // "cert") (Certificate.to_string (Node.cert t.node)) in
  write_file (t.dir // "ca.cert") (Certificate.to_string t.ca_cert)

let save t =
  match save_parts t with
  | Ok () ->
    record t
      (Obs.Event.Store_saved
         { node = node_name t; blocks = Dag.cardinal (Node.dag t.node) });
    (* A save is a durability point: buffered telemetry reaches disk
       with the data it describes. *)
    flush_trace t;
    Ok ()
  | Error _ as e -> e

(* A block made here: journaled [created], then saved. *)
let created t block =
  record_all t (Obs.Engine_events.created ~node:(node_name t) block);
  let* () = save t in
  Ok block

let exists dir = Sys.file_exists (dir // "chain.dag")

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok () else Error (dir ^ " is not a directory")
  else begin
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
  end

let init ~dir ~seed ?(height = 10) ?(role = "ca") ?(init_crdts = []) () =
  let* () = ensure_dir dir in
  if exists dir then Error (dir ^ " already contains a node")
  else begin
    let signer = Signer.mss ~height ~seed () in
    let cert = Certificate.self_signed ~signer ~role in
    let extra =
      List.map (fun (name, spec) -> Transaction.create_crdt ~name spec) init_crdts
    in
    let genesis = Node.genesis_block ~signer ~cert ~timestamp:(now_ts ()) ~extra () in
    let node = Node.create ~signer ~cert () in
    match Node.receive node ~now:(Timestamp.add_ms (now_ts ()) 1L) genesis with
    | Node.Accepted ->
      let t =
        { dir; node; ca_cert = cert; key = { signer; height; seed }; refused = [] }
      in
      let* _genesis = created t genesis in
      Ok t
    | (Node.Duplicate | Node.Buffered _ | Node.Rejected _) as r ->
      Error (Fmt.str "genesis rejected: %a" Node.pp_receive_result r)
  end

let load ~dir =
  if not (exists dir) then Error (dir ^ " does not contain a node")
  else begin
    let* key_raw = read_file (dir // "key") in
    let* height, used, seed = decode_key key_raw in
    let* cert_raw = read_file (dir // "cert") in
    let* ca_raw = read_file (dir // "ca.cert") in
    let* dag_raw = read_file (dir // "chain.dag") in
    let* cert =
      Option.to_result ~none:"malformed certificate" (Certificate.of_string cert_raw)
    in
    let* ca_cert =
      Option.to_result ~none:"malformed CA certificate" (Certificate.of_string ca_raw)
    in
    let* dag = Option.to_result ~none:"corrupt chain.dag" (Dag.of_string dag_raw) in
    let signer = Signer.mss ~height ~used ~seed () in
    if not (String.equal signer.Signer.public cert.Certificate.public) then
      Error "key file does not match certificate"
    else begin
      let node = Node.create ~signer ~cert () in
      let stored = List.of_seq (Dag.topo_seq dag) in
      Node.receive_all node ~now:(stored_ts dag) stored;
      let refused =
        List.filter (fun (b : Block.t) -> not (Dag.mem (Node.dag node) b.Block.hash)) stored
      in
      let t = { dir; node; ca_cert; key = { signer; height; seed }; refused } in
      record t
        (Obs.Event.Store_loaded
           { node = node_name t; blocks = Dag.cardinal (Node.dag node) });
      Ok t
    end
  end

(* Sign [txs] into a block on the frontier, stamped with the wall clock. *)
let append_txs t txs =
  match Node.append t.node ~now:(now_ts ()) txs with
  | Error e -> Error (Fmt.str "%a" Node.pp_append_error e)
  | Ok block -> created t block

let append t ~crdt ~op args =
  match Node.prepare_transaction t.node ~crdt ~op args with
  | Error e -> Error (Schema.error_to_string e)
  | Ok tx -> append_txs t [ tx ]

let remaining_signatures t = t.key.signer.Signer.remaining ()

let deliver t ~journal ~peer blocks =
  let node = node_name t in
  journal (Obs.Engine_events.received ~node ~peer blocks);
  let made = Node.intake t.node ~now:(intake_ts ()) blocks in
  journal (Obs.Engine_events.made_resident ~node ~peer made);
  made

let sync t ~from ~mode =
  let peer = node_name from in
  record t (Obs.Event.Sync_started { node = node_name t; peer });
  let delivered, stats = Reconcile.pull mode (Node.dag t.node) (Node.dag from.node) in
  let made = deliver t ~journal:(record_all t) ~peer delivered in
  record t
    (Obs.Event.Sync_completed
       { node = node_name t; peer; pulled = List.length made; served = 0 });
  let* () = save t in
  Ok stats

(* §IV-I batch ancestry recovery: treat [from]'s replica as a superpeer
   archive and pull the ancestry closure of [below] (default: the
   source's whole frontier) in canonical order, so the blocks we lack
   (neither resident nor archived) replay with no reorder buffering. *)
let recover t ~from ?below () =
  let src_dag = Node.dag from.node in
  let seeds =
    match below with
    | Some (_ :: _ as hs) -> hs
    | Some [] | None -> Hash_id.Set.elements (Dag.frontier src_dag)
  in
  let closure = Dag.below src_dag seeds in
  let served =
    List.of_seq
      (Seq.filter
         (fun (b : Block.t) -> Hash_id.Set.mem b.Block.hash closure)
         (Dag.topo_seq src_dag))
  in
  let mine = Node.dag t.node in
  let missing =
    List.filter
      (fun (b : Block.t) ->
        not (Dag.mem mine b.Block.hash || Dag.is_archived mine b.Block.hash))
      served
  in
  let peer = node_name from in
  let made = deliver t ~journal:(record_all t) ~peer missing in
  record t
    (Obs.Event.Recovery_completed
       { node = node_name t; peer; blocks = List.length made });
  let* () = save t in
  Ok (List.length served, List.length made)

let enroll ~ca_dir ~dir ~seed ?(height = 10) ?(role = "member") () =
  let* ca = load ~dir:ca_dir in
  let* () = ensure_dir dir in
  if exists dir then Error (dir ^ " already contains a node")
  else begin
    let subject = Signer.mss ~height ~seed () in
    let cert =
      Certificate.issue ~ca:ca.ca_cert ~ca_signer:ca.key.signer ~subject ~role
    in
    (* Enrolment goes on the CA's chain, and the member's replica starts
       as a pull of it. *)
    let* _block =
      Result.map_error
        (fun e -> "enrolment append failed: " ^ e)
        (append_txs ca [ Transaction.add_user cert ])
    in
    let t =
      {
        dir;
        node = Node.create ~signer:subject ~cert ();
        ca_cert = ca.ca_cert;
        key = { signer = subject; height; seed };
        refused = [];
      }
    in
    let* _stats = sync t ~from:ca ~mode:Reconcile.Naive in
    Ok t
  end

let rotate ~ca_dir ~dir ~seed ?(height = 10) () =
  let* ca = load ~dir:ca_dir in
  let* t = load ~dir in
  (* Two handles on one node hold two signers at one position: the
     certificate and the rotation block would sign with the same
     one-time leaf, and the CA handle's save would write the old key
     and certificate back beside a chain that revokes them. *)
  if Hash_id.equal (Node.user_id ca.node) (Node.user_id t.node) then
    Error "a CA cannot certify its own key rotation (CA and node are the same)"
  else begin
    let fresh = Signer.mss ~height ~seed () in
    let role = (Node.cert t.node).Certificate.role in
    let cert =
      Certificate.issue ~ca:ca.ca_cert ~ca_signer:ca.key.signer ~subject:fresh
        ~role
    in
    match Node.rotate_key t.node ~now:(now_ts ()) ~signer:fresh ~cert with
    | Error e -> Error (Fmt.str "rotation failed: %a" Node.pp_append_error e)
    | Ok block ->
      let t = { t with key = { signer = fresh; height; seed } } in
      let* _block = created t block in
      (* The CA pulls the rotation block, which also saves its key. *)
      let* _stats = sync ca ~from:t ~mode:Reconcile.Naive in
      Ok t
  end

(* Replay the stored chain.dag, not the loaded replica, through a fresh
   node's intake in canonical order: a block [load] refused is reported
   here, by hash and intake result. *)
let verify t =
  let* raw = read_file (t.dir // "chain.dag") in
  let* dag = Option.to_result ~none:"corrupt chain.dag" (Dag.of_string raw) in
  let node = Node.create ~signer:t.key.signer ~cert:(Node.cert t.node) () in
  let now = stored_ts dag in
  match Dag.genesis dag with
  | None -> Error "no genesis block"
  | Some _ ->
    Seq.fold_left
      (fun checked (b : Block.t) ->
        let* n = checked in
        match Node.receive node ~now b with
        | Node.Accepted -> Ok (n + 1)
        | (Node.Duplicate | Node.Buffered _ | Node.Rejected _) as r ->
          Error
            (Fmt.str "block %a: %a" Hash_id.pp b.Block.hash Node.pp_receive_result r))
      (Ok 0) (Dag.topo_seq dag)

let summary t =
  let dag = Node.dag t.node in
  let csm = Node.csm t.node in
  let buf = Buffer.create 512 in
  let store = Csm.store csm in
  Buffer.add_string buf
    (Fmt.str "node %a (role %s)\n" Hash_id.pp (Node.user_id t.node)
       (Node.cert t.node).Certificate.role);
  Buffer.add_string buf
    (Fmt.str "blocks: %d resident, %d archived, %d bytes\n" (Dag.cardinal dag)
       (Dag.archived_count dag) (Dag.byte_size dag));
  Buffer.add_string buf
    (Fmt.str "frontier: %a\n"
       (Fmt.list ~sep:(Fmt.any ", ") Hash_id.pp)
       (Hash_id.Set.elements (Dag.frontier dag)));
  (match Csm.membership csm with
  | Some m -> Buffer.add_string buf (Fmt.str "members: %d\n" (Membership.cardinal m))
  | None -> ());
  List.iter
    (fun name ->
      match Vegvisir_crdt.Store.find store name with
      | Some inst ->
        Buffer.add_string buf
          (Fmt.str "crdt %s (%s): %a\n" name
             (Schema.kind_to_string (Vegvisir_crdt.Instance.spec inst).Schema.kind)
             Vegvisir_crdt.Instance.pp inst)
      | None -> ())
    (Vegvisir_crdt.Store.names store);
  Buffer.contents buf

let export_dot t = Fmt.str "%a" Dag.pp_dot (Node.dag t.node)
