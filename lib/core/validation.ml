type error =
  | Unknown_creator
  | Revoked_creator
  | Missing_parents of Hash_id.Set.t
  | Timestamp_not_after_parents
  | Timestamp_in_future
  | Bad_signature
  | Malformed_genesis of string
  | Duplicate_genesis

let default_max_skew_ms = 5000L

let genesis_certificate (b : Block.t) =
  (* Deliberate catch-all: anything but the exact bootstrap shape is "no
     certificate", not an error. *)
  match[@warning "-4"] b.Block.transactions with
  | { Transaction.crdt; op = "add"; args = [ Vegvisir_crdt.Value.Bytes raw ] } :: _
    when String.equal crdt Transaction.users_crdt ->
    Certificate.of_string raw
  | _ -> None

let check_genesis ?proven (b : Block.t) =
  if not (Block.is_genesis b) then Error (Malformed_genesis "has parents")
  else begin
    match genesis_certificate b with
    | None ->
      Error (Malformed_genesis "first transaction must add the owner certificate")
    | Some cert ->
      if not (Hash_id.equal cert.Certificate.user_id b.Block.creator) then
        Error (Malformed_genesis "certificate subject is not the block creator")
      else if
        not
          (Block.verify_signature ?proven ~public:cert.Certificate.public
             ~scheme:cert.Certificate.scheme b)
      then Error Bad_signature
      else begin
        match Membership.create ~ca:cert with
        | Ok m -> Ok m
        | Error _ -> Error (Malformed_genesis "owner certificate does not verify")
      end
  end

let check_block ~membership ~dag ~now ?proven (b : Block.t) =
  if Block.is_genesis b then Error Duplicate_genesis
  else begin
    let missing = Dag.missing_parents dag b in
    if not (Hash_id.Set.is_empty missing) then Error (Missing_parents missing)
    else begin
      (* Check 1: membership. A revocation only invalidates blocks that
         causally follow it. *)
      let creator_check =
        match Membership.certificate membership b.Block.creator with
        | Some cert -> Ok cert
        | None -> begin
          match Membership.revoked_in membership b.Block.creator with
          | None -> Error Unknown_creator
          | Some revocation_block ->
            let after_revocation =
              List.exists
                (fun p ->
                  Hash_id.equal p revocation_block
                  || Dag.is_ancestor dag ~ancestor:revocation_block ~descendant:p)
                b.Block.parents
            in
            if after_revocation then Error Revoked_creator
            else Error Unknown_creator (* concurrent: wait for/accept cert *)
        end
      in
      match creator_check with
      | Error e -> Error e
      | Ok cert ->
        (* Check 3: timestamps. Pruned parents have unknown timestamps and
           are skipped (they were validated before being archived). *)
        let parent_ts =
          List.fold_left
            (fun acc p ->
              match Dag.find dag p with
              | None -> acc
              | Some pb -> Timestamp.max acc pb.Block.timestamp)
            Timestamp.zero b.Block.parents
        in
        if Timestamp.compare b.Block.timestamp parent_ts <= 0 then
          Error Timestamp_not_after_parents
        else if
          Timestamp.compare b.Block.timestamp (Timestamp.add_ms now default_max_skew_ms)
          > 0
        then Error Timestamp_in_future
        else if
          (* Check 4: signature matches the creator's certificate. *)
          not
            (Block.verify_signature ?proven ~public:cert.Certificate.public
               ~scheme:cert.Certificate.scheme b)
        then Error Bad_signature
        else Ok ()
    end
  end

let is_transient = function
  | Unknown_creator | Missing_parents _ -> true
  | Revoked_creator | Timestamp_not_after_parents | Timestamp_in_future
  | Bad_signature | Malformed_genesis _ | Duplicate_genesis ->
    false

let pp_error ppf = function
  | Unknown_creator -> Fmt.string ppf "creator not (yet) a member"
  | Revoked_creator -> Fmt.string ppf "creator revoked in the block's causal past"
  | Missing_parents s ->
    Fmt.pf ppf "missing %d parent(s)" (Hash_id.Set.cardinal s)
  | Timestamp_not_after_parents ->
    Fmt.string ppf "timestamp not after all parents"
  | Timestamp_in_future -> Fmt.string ppf "timestamp in the validator's future"
  | Bad_signature -> Fmt.string ppf "signature invalid or creator mismatch"
  | Malformed_genesis m -> Fmt.pf ppf "malformed genesis: %s" m
  | Duplicate_genesis -> Fmt.string ppf "second genesis block"
