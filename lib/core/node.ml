module Schema = Vegvisir_crdt.Schema
module Store = Vegvisir_crdt.Store

let log_src = Logs.Src.create "vegvisir.node" ~doc:"Vegvisir node block intake"

module Log = (val Logs.src_log log_src : Logs.LOG)

type receive_result =
  | Accepted
  | Duplicate
  | Buffered of Validation.error
  | Rejected of Validation.error

type append_error =
  | No_genesis
  | Prepare_failed of Schema.error
  | Signer_exhausted
  | Self_rejected of Validation.error

type stats = {
  mutable created : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable duplicates : int;
}

type t = {
  mutable signer : Signer.t;
  mutable cert : Certificate.t;
  mutable dag : Dag.t;
  mutable csm : Csm.t;
  mutable pending : Pending_pool.t; (* capacity-bounded; drained on progress *)
  mutable prechecked : string option Hash_id.Map.t;
      (* Block.proven_root by block hash, for one intake call *)
  stats : stats;
}

let create ?(max_pending = 4096) ~signer ~cert () =
  {
    signer;
    cert;
    dag = Dag.empty;
    csm = Csm.empty;
    pending = Pending_pool.create ~capacity:max_pending ();
    prechecked = Hash_id.Map.empty;
    stats = { created = 0; accepted = 0; rejected = 0; duplicates = 0 };
  }

let genesis_block ~signer ~cert ~timestamp ?location ?(extra = []) () =
  let creator = cert.Certificate.user_id in
  Block.create ~signer ~creator ~timestamp ?location ~parents:[]
    (Transaction.add_user cert :: extra)

let user_id t = t.cert.Certificate.user_id
let cert t = t.cert
let dag t = t.dag
let csm t = t.csm
let membership t = Csm.membership t.csm
let stats t = t.stats
let pending_count t = Pending_pool.cardinal t.pending

(* Accept a block that passed validation: store and apply. *)
let commit t (b : Block.t) =
  match Dag.add t.dag b with
  | Error _ -> false
  | Ok dag ->
    t.dag <- dag;
    let csm, _results = Csm.apply_block t.csm b in
    t.csm <- csm;
    t.stats.accepted <- t.stats.accepted + 1;
    true

let try_accept t ~now (b : Block.t) : receive_result =
  let proven = Hash_id.Map.find_opt b.Block.hash t.prechecked in
  if Dag.mem t.dag b.Block.hash || Dag.is_archived t.dag b.Block.hash then
    Duplicate
  else if Block.is_genesis b then begin
    match Dag.genesis t.dag with
    | Some g ->
      if Block.equal g b then Duplicate
      else Rejected Validation.Duplicate_genesis
    | None -> begin
      match Validation.check_genesis ?proven b with
      | Error e -> Rejected e
      | Ok _membership ->
        if commit t b then Accepted else Rejected Validation.Duplicate_genesis
    end
  end
  else begin
    match membership t with
    | None -> Buffered Validation.Unknown_creator (* no genesis yet *)
    | Some m -> begin
      match
        Validation.check_block ~membership:m ~dag:t.dag ~now ?proven b
      with
      | Ok () ->
        if commit t b then Accepted
        else Rejected (Validation.Missing_parents Hash_id.Set.empty)
      | Error e -> if Validation.is_transient e then Buffered e else Rejected e
    end
  end

let buffer t (b : Block.t) = t.pending <- Pending_pool.add t.pending b

(* Retry buffered blocks until a pass makes none resident; returns the
   ones made resident, in commit order. *)
let drain t ~now =
  let pending, made =
    Pending_pool.drain t.pending (fun b ->
        match try_accept t ~now b with
        | Accepted -> Pending_pool.Resident
        | Duplicate -> Pending_pool.Dropped
        | Buffered _ -> Pending_pool.Waiting
        | Rejected _ ->
          t.stats.rejected <- t.stats.rejected + 1;
          Pending_pool.Dropped)
  in
  t.pending <- pending;
  made

(* One block through the pipeline: its result and, when it was
   accepted, the buffered blocks its accept drained, in commit order. *)
let admit t ~now b =
  match try_accept t ~now b with
  | Accepted -> (Accepted, drain t ~now)
  | Duplicate ->
    t.stats.duplicates <- t.stats.duplicates + 1;
    (Duplicate, [])
  | Buffered e ->
    Log.debug (fun m ->
        m "%a: buffered %a (%a)" Hash_id.pp (user_id t) Hash_id.pp b.Block.hash
          Validation.pp_error e);
    buffer t b;
    (Buffered e, [])
  | Rejected e ->
    Log.warn (fun m ->
        m "%a: rejected %a (%a)" Hash_id.pp (user_id t) Hash_id.pp b.Block.hash
          Validation.pp_error e);
    t.stats.rejected <- t.stats.rejected + 1;
    (Rejected e, [])

let receive t ~now b = fst (admit t ~now b)

(* Blocks of a batch that may need an MSS check: neither resident nor
   archived, once each, and not by a member known to sign otherwise. *)
let precheck_candidates t blocks =
  let other_scheme (b : Block.t) =
    match Option.bind (membership t) (fun m -> Membership.certificate m b.Block.creator) with
    | Some c -> not (String.equal c.Certificate.scheme "mss")
    | None -> false
  in
  let _, fresh =
    List.fold_left
      (fun (seen, acc) (b : Block.t) ->
        let h = b.Block.hash in
        if
          Hash_id.Set.mem h seen || Dag.mem t.dag h || Dag.is_archived t.dag h
          || other_scheme b
        then (seen, acc)
        else (Hash_id.Set.add h seen, b :: acc))
      (Hash_id.Set.empty, []) blocks
  in
  Array.of_list (List.rev fresh)

(* Each candidate's signature hashing runs first, across domains: it
   yields the key the signature proves. Then every block goes through
   [admit] in order, as it would one at a time, and checking its
   signature compares that key with its creator's. A lone candidate
   gains nothing from the pool: its check runs inline. *)
let intake t ~now blocks =
  let fresh = precheck_candidates t blocks in
  if Array.length fresh > 1 then begin
    let roots = Domain_pool.map Block.proven_root fresh in
    let add acc (b : Block.t) root = Hash_id.Map.add b.Block.hash root acc in
    t.prechecked <-
      Seq.fold_left2 add Hash_id.Map.empty (Array.to_seq fresh) (Array.to_seq roots)
  end;
  Fun.protect
    ~finally:(fun () -> t.prechecked <- Hash_id.Map.empty)
    (fun () ->
      List.concat_map
        (fun b ->
          match admit t ~now b with
          | Accepted, drained -> b :: drained
          | (Duplicate | Buffered _ | Rejected _), _ -> [])
        blocks)

let receive_all t ~now blocks = ignore (intake t ~now blocks : Block.t list)

let missing_dependencies t =
  Pending_pool.fold
    (fun b acc -> Hash_id.Set.union acc (Dag.missing_parents t.dag b))
    t.pending Hash_id.Set.empty

let prepare_transaction t ~crdt ~op args =
  match Store.prepare (Csm.store t.csm) ~crdt ~op args with
  | Ok args -> Ok (Transaction.make ~crdt ~op args)
  | Error e -> Error e

let append_drained t ~now ?location ?parents txs =
  match Dag.genesis t.dag with
  | None -> Error No_genesis
  | Some _ -> begin
    let parents =
      match parents with
      | Some ps -> ps
      | None -> Hash_id.Set.elements (Dag.frontier t.dag)
    in
    let parent_ts =
      List.fold_left
        (fun acc p ->
          match Dag.find t.dag p with
          | None -> acc
          | Some pb -> Timestamp.max acc pb.Block.timestamp)
        Timestamp.zero parents
    in
    let timestamp = Timestamp.max now (Timestamp.add_ms parent_ts 1L) in
    match
      Block.create ~signer:t.signer ~creator:(user_id t) ~timestamp ?location
        ~parents txs
    with
    | exception Vegvisir_crypto.Mss.Exhausted -> Error Signer_exhausted
    | b -> begin
      t.stats.created <- t.stats.created + 1;
      match admit t ~now:timestamp b with
      | Accepted, drained -> Ok (b, drained)
      | Duplicate, _ -> Ok (b, [])
      | (Buffered e | Rejected e), _ -> Error (Self_rejected e)
    end
  end

let append t ~now ?location ?parents txs =
  Result.map fst (append_drained t ~now ?location ?parents txs)

let witness t ~now = append t ~now []

let rotate_key t ~now ~signer ~cert =
  if not (Hash_id.equal cert.Certificate.user_id (Signer.user_id_of_public signer.Signer.public))
  then invalid_arg "Node.rotate_key: certificate does not match the new key";
  (* One block, signed by the OLD key: enrol the new certificate and
     self-revoke the old one. Revocation only affects causally-later
     blocks, so the node's history stays valid; everything after this
     block is signed by (and attributed to) the new identity. *)
  match
    append t ~now [ Transaction.add_user cert; Transaction.revoke_user t.cert ]
  with
  | Error _ as e -> e
  | Ok b ->
    t.signer <- signer;
    t.cert <- cert;
    Ok b

let prune_to t ~max_bytes ~archived =
  let pruned = ref 0 in
  if Dag.byte_size t.dag > max_bytes then begin
    let frontier = Dag.frontier t.dag in
    (* Walk the cached order and stop as soon as the budget is met:
       byte_size only decreases during the loop, so the guard is
       monotone and the early exit is sound. *)
    let rec go seq =
      if Dag.byte_size t.dag > max_bytes then
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons ((b : Block.t), rest) ->
          if
            (not (Block.is_genesis b))
            && not (Hash_id.Set.mem b.Block.hash frontier)
          then begin
            archived b;
            t.dag <- Dag.prune t.dag b.Block.hash;
            incr pruned
          end;
          go rest
    in
    go (Dag.topo_seq t.dag)
  end;
  !pruned

let pp_receive_result ppf = function
  | Accepted -> Fmt.string ppf "accepted"
  | Duplicate -> Fmt.string ppf "duplicate"
  | Buffered e -> Fmt.pf ppf "buffered (%a)" Validation.pp_error e
  | Rejected e -> Fmt.pf ppf "rejected (%a)" Validation.pp_error e

let pp_append_error ppf = function
  | No_genesis -> Fmt.string ppf "no genesis block yet"
  | Prepare_failed e -> Fmt.pf ppf "prepare failed: %a" Schema.pp_error e
  | Signer_exhausted -> Fmt.string ppf "signing key exhausted"
  | Self_rejected e -> Fmt.pf ppf "own block rejected: %a" Validation.pp_error e
