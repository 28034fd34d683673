module HSet = Hash_id.Set
module IMap = Dag.Int_map

type mode = Naive | Bloom | Digest

module Mode = struct
  type t = mode

  let all = [ Naive; Bloom; Digest ]

  let to_string = function
    | Naive -> "naive"
    | Bloom -> "bloom"
    | Digest -> "digest"

  let of_string = function
    | "naive" -> Some Naive
    | "bloom" -> Some Bloom
    | "digest" -> Some Digest
    | _ -> None

  let equal a b =
    match (a, b) with
    | Naive, Naive | Bloom, Bloom | Digest, Digest -> true
    | (Naive | Bloom | Digest), _ -> false

  let pp fmt m = Format.pp_print_string fmt (to_string m)
end

type interval = { lo : int; hi : int; digest : string }
type leaf = { lo : int; hi : int; hashes : Hash_id.t list }

type message =
  | Frontier_request of { level : int }
  | Frontier_reply of { level : int; blocks : Block.t list }
  | Bloom_request of { filter : string }
  | Bloom_reply of { blocks : Block.t list }
  | Blocks_request of { hashes : Hash_id.t list }
  | Blocks_reply of { blocks : Block.t list }
  | Digest_request of { upto : int; intervals : interval list }
  | Digest_reply of { splits : interval list; leaves : leaf list }
  | Trace_context of { trace : string; span : string }

(* Wire tags 1, 2 and 5-8 predate the strategy interface and must stay
   byte-identical (same-seed experiment journals are replayed across
   versions); digest messages extend the namespace at 9/10, and the
   optional span-tracing context frame at 11. Tags 3 and 4 belonged to
   the retired indexed strategy and are never reused: a peer still
   sending them fails to decode, like any unknown tag. Peers predating
   tag 11 fail to decode the frame and drop it (Wire.decode_string
   returns None), which is exactly the intended old-peer behaviour. *)
let encode_message b = function
  | Frontier_request { level } ->
    Wire.put_u8 b 1;
    Wire.put_u32 b level
  | Frontier_reply { level; blocks } ->
    Wire.put_u8 b 2;
    Wire.put_u32 b level;
    Wire.put_list b Block.encode blocks
  | Bloom_request { filter } ->
    Wire.put_u8 b 5;
    Wire.put_str b filter
  | Bloom_reply { blocks } ->
    Wire.put_u8 b 6;
    Wire.put_list b Block.encode blocks
  | Blocks_request { hashes } ->
    Wire.put_u8 b 7;
    Wire.put_list b (fun b h -> Wire.put_str b (Hash_id.to_raw h)) hashes
  | Blocks_reply { blocks } ->
    Wire.put_u8 b 8;
    Wire.put_list b Block.encode blocks
  | Digest_request { upto; intervals } ->
    Wire.put_u8 b 9;
    Wire.put_u32 b upto;
    Wire.put_list b
      (fun b { lo; hi; digest } ->
        Wire.put_u32 b lo;
        Wire.put_u32 b hi;
        Wire.put_str b digest)
      intervals
  | Digest_reply { splits; leaves } ->
    Wire.put_u8 b 10;
    Wire.put_list b
      (fun b { lo; hi; digest } ->
        Wire.put_u32 b lo;
        Wire.put_u32 b hi;
        Wire.put_str b digest)
      splits;
    Wire.put_list b
      (fun b { lo; hi; hashes } ->
        Wire.put_u32 b lo;
        Wire.put_u32 b hi;
        Wire.put_list b (fun b h -> Wire.put_str b (Hash_id.to_raw h)) hashes)
      leaves
  | Trace_context { trace; span } ->
    Wire.put_u8 b 11;
    Wire.put_str b trace;
    Wire.put_str b span

let get_interval c =
  let lo = Wire.get_u32 c in
  let hi = Wire.get_u32 c in
  let digest = Wire.get_str c in
  { lo; hi; digest }

let decode_message c =
  match Wire.get_u8 c with
  | 1 -> Frontier_request { level = Wire.get_u32 c }
  | 2 ->
    let level = Wire.get_u32 c in
    let blocks = Wire.get_list c Block.decode in
    Frontier_reply { level; blocks }
  | 5 -> Bloom_request { filter = Wire.get_str c }
  | 6 -> Bloom_reply { blocks = Wire.get_list c Block.decode }
  | 7 ->
    Blocks_request
      { hashes = Wire.get_list c (fun c -> Hash_id.of_raw_exn (Wire.get_str c)) }
  | 8 -> Blocks_reply { blocks = Wire.get_list c Block.decode }
  | 9 ->
    let upto = Wire.get_u32 c in
    let intervals = Wire.get_list c get_interval in
    Digest_request { upto; intervals }
  | 10 ->
    let splits = Wire.get_list c get_interval in
    let leaves =
      Wire.get_list c (fun c ->
          let lo = Wire.get_u32 c in
          let hi = Wire.get_u32 c in
          let hashes =
            Wire.get_list c (fun c -> Hash_id.of_raw_exn (Wire.get_str c))
          in
          { lo; hi; hashes })
    in
    Digest_reply { splits; leaves }
  | 11 ->
    let trace = Wire.get_str c in
    let span = Wire.get_str c in
    Trace_context { trace; span }
  | _ -> raise (Wire.Malformed "bad reconcile message tag")

let message_size m =
  let b = Buffer.create 256 in
  encode_message b m;
  Buffer.length b

let message_equal a b =
  let enc m =
    let buf = Buffer.create 256 in
    encode_message buf m;
    Buffer.contents buf
  in
  String.equal (enc a) (enc b)

let is_request = function
  | Frontier_request _ | Bloom_request _ | Blocks_request _ | Digest_request _ ->
    true
  | Frontier_reply _ | Bloom_reply _ | Blocks_reply _ | Digest_reply _
  | Trace_context _ ->
    false

let reply_blocks = function
  | Frontier_reply { blocks; _ }
  | Bloom_reply { blocks }
  | Blocks_reply { blocks } ->
    blocks
  | Frontier_request _ | Bloom_request _ | Blocks_request _ | Digest_request _
  | Digest_reply _ | Trace_context _ ->
    []

let advertised_hashes = function
  | Digest_reply { leaves; _ } ->
    List.concat_map (fun { hashes; _ } -> hashes) leaves
  | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
  | Blocks_request _ | Blocks_reply _ | Digest_request _ | Trace_context _ ->
    []

(* ------------------------------------------------------------------ *)
(* Deterministic span identity (cross-daemon tracing)                   *)

(* Trace and span ids are 16 lowercase hex characters derived by SHA-256
   from the initiating node's identity and its session sequence number —
   no global randomness, so same-seed runs mint byte-identical ids, and
   both ends of an exchange can derive matching ids from the wire
   context alone. *)
let id_of_seed seed = String.sub (Hash_id.to_hex (Hash_id.digest seed)) 0 16

let session_trace_ids ~initiator ~generation =
  let seed = Hash_id.to_raw initiator ^ ":" ^ string_of_int generation in
  (id_of_seed ("trace:" ^ seed), id_of_seed ("span:" ^ seed))

(* Head sampling: hash the same (initiator, generation) seed into a
   uniform fraction of [0,1) and compare against the configured rate.
   Deterministic — every replica, and every replay of the same seed,
   makes the same keep/drop decision for a given session. *)
let trace_sampled ~initiator ~generation ~rate =
  if rate >= 1.0 then true
  else if rate <= 0.0 then false
  else
    let raw =
      Hash_id.to_raw
        (Hash_id.digest
           ("sample:" ^ Hash_id.to_raw initiator ^ ":"
          ^ string_of_int generation))
    in
    let v =
      (Char.code raw.[0] lsl 24)
      lor (Char.code raw.[1] lsl 16)
      lor (Char.code raw.[2] lsl 8)
      lor Char.code raw.[3]
    in
    float_of_int v /. 4294967296.0 < rate

type outcome = Continue of message | Done of Block.t list | Foreign

module type S = sig
  type state

  val mode : mode
  val start : Dag.t -> state * message
  val request : state -> message
  val on_reply : state -> Dag.t -> message -> state * outcome
  val respond : Dag.t -> message -> message option
end

(* Honest initiators name [HSet.elements]: strictly ascending, so
   repeat-free at any length. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> Hash_id.compare a b < 0 && ascending rest
  | [] | [ _ ] -> true

(* Shared by bloom and digest gap recovery: every resident block named,
   once, in the order first named, until the next block would push the
   encoded reply (tag and list count, then the blocks) past
   [Wire.max_frame]. Only a list that is not ascending pays for a set of
   the hashes seen. The initiator asks again for whatever a reply that
   brought something new left out (see [recover]). *)
let respond_blocks dag hashes =
  let hashes =
    if ascending hashes then hashes
    else
      List.fold_left
        (fun (seen, acc) h ->
          if HSet.mem h seen then (seen, acc) else (HSet.add h seen, h :: acc))
        (HSet.empty, []) hashes
      |> snd |> List.rev
  in
  let rec go used acc = function
    | [] -> List.rev acc
    | h :: rest -> (
      match Dag.find dag h with
      | None -> go used acc rest
      | Some b ->
        let used = used + Block.byte_size b in
        if used > Wire.max_frame then List.rev acc else go used (b :: acc) rest)
  in
  Blocks_reply { blocks = go 5 [] hashes }

module Naive_impl = struct
  type state = { level : int; last_reply_count : int }

  let mode = Naive
  let start _dag = ({ level = 1; last_reply_count = -1 }, Frontier_request { level = 1 })
  let request st = Frontier_request { level = st.level }

  let on_reply st dag = function
    | Frontier_reply { level; _ } when not (Int.equal level st.level) ->
      (st, Foreign)
    | Frontier_reply { level = _; blocks } ->
      let unknown =
        List.filter (fun (b : Block.t) -> not (Dag.mem dag b.Block.hash)) blocks
      in
      let in_reply =
        List.fold_left
          (fun acc (b : Block.t) -> HSet.add b.Block.hash acc)
          HSet.empty blocks
      in
      let bridged =
        List.for_all
          (fun (b : Block.t) ->
            List.for_all
              (fun p ->
                Dag.mem dag p || Dag.is_archived dag p || HSet.mem p in_reply)
              b.Block.parents)
          unknown
      in
      let fixpoint = Int.equal (List.length blocks) st.last_reply_count in
      let st = { st with last_reply_count = List.length blocks } in
      if bridged || fixpoint then (st, Done unknown)
      else
        let st = { level = st.level + 1; last_reply_count = st.last_reply_count } in
        (st, Continue (Frontier_request { level = st.level }))
    | Frontier_request _ | Bloom_request _ | Bloom_reply _ | Blocks_request _
    | Blocks_reply _ | Digest_request _ | Digest_reply _ | Trace_context _ ->
      (st, Foreign)

  let respond dag = function
    | Frontier_request { level } ->
      let hashes = Dag.level_frontier dag (max 1 level) in
      let blocks = List.filter_map (Dag.find dag) (HSet.elements hashes) in
      Some (Frontier_reply { level; blocks })
    | Frontier_reply _ | Bloom_request _ | Bloom_reply _ | Blocks_request _
    | Blocks_reply _ | Digest_request _ | Digest_reply _ | Trace_context _ ->
      None
end

let bloom_of_dag dag =
  let count = max 1 (Dag.cardinal dag + Dag.archived_count dag) in
  let bloom = Vegvisir_crypto.Bloom.create ~expected:count ~fp_rate:0.01 in
  Seq.iter
    (fun (b : Block.t) ->
      Vegvisir_crypto.Bloom.add bloom (Hash_id.to_raw b.Block.hash))
    (Dag.blocks_seq dag);
  Hash_id.Set.iter
    (fun h -> Vegvisir_crypto.Bloom.add bloom (Hash_id.to_raw h))
    (Dag.archived_hashes dag);
  Vegvisir_crypto.Bloom.to_string bloom

(* The hashes a [Blocks_request] named; nothing for any other request. *)
let asked_hashes = function
  | Blocks_request { hashes } -> hashes
  | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
  | Blocks_reply _ | Digest_request _ | Digest_reply _ | Trace_context _ ->
    []

(* One round of gap recovery, after a reply delivering [blocks] to the
   request that named [asked]. Returns the new collection and the hashes
   to ask for next:
   - parents neither local, collected, nor asked for before: false
     positives of a probabilistic advertisement, or genuinely absent
     ancestry;
   - if the reply brought a block neither local nor collected before,
     every hash of [asked] still missing. A responder stops a
     [Blocks_reply] before it would pass [Wire.max_frame], so those may
     have been cut off rather than refused.
   A reply that brings nothing new repeats nothing, so every repeat
   follows progress and an honest session ends. *)
let recover dag ~collected ~requested ~asked blocks =
  let add acc (b : Block.t) = HSet.add b.Block.hash acc in
  let had = List.fold_left add HSet.empty collected in
  let fresh =
    List.filter
      (fun (b : Block.t) -> not (Dag.mem dag b.Block.hash || HSet.mem b.Block.hash had))
      blocks
  in
  let collected = fresh @ collected in
  let have = List.fold_left add had fresh in
  let missing h = not (Dag.mem dag h || Dag.is_archived dag h || HSet.mem h have) in
  let gaps =
    List.fold_left
      (fun acc (b : Block.t) ->
        List.fold_left
          (fun acc p ->
            if missing p && not (HSet.mem p requested) then HSet.add p acc else acc)
          acc b.Block.parents)
      HSet.empty collected
  in
  match fresh with
  | [] -> (collected, gaps)
  | _ :: _ ->
    let again acc h = if missing h then HSet.add h acc else acc in
    (collected, List.fold_left again gaps asked)

module Bloom_impl = struct
  type state = {
    filter : string;
    collected : Block.t list;
    requested : HSet.t;
    pending_request : message option;
  }

  let mode = Bloom

  let start dag =
    let filter = bloom_of_dag dag in
    ( { filter; collected = []; requested = HSet.empty; pending_request = None },
      Bloom_request { filter } )

  let request st =
    Option.value st.pending_request ~default:(Bloom_request { filter = st.filter })

  let on_reply st dag = function
    | Bloom_reply { blocks } | Blocks_reply { blocks } ->
      let asked = Option.fold ~none:[] ~some:asked_hashes st.pending_request in
      let collected, next =
        recover dag ~collected:st.collected ~requested:st.requested ~asked blocks
      in
      let st = { st with collected } in
      if HSet.is_empty next then (st, Done collected)
      else
        let req = Blocks_request { hashes = HSet.elements next } in
        let st =
          {
            st with
            requested = HSet.union st.requested next;
            pending_request = Some req;
          }
        in
        (st, Continue req)
    | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Blocks_request _
    | Digest_request _ | Digest_reply _ | Trace_context _ ->
      (st, Foreign)

  let respond dag = function
    | Bloom_request { filter } -> begin
      match Vegvisir_crypto.Bloom.of_string filter with
      | None -> Some (Bloom_reply { blocks = [] })
      | Some bloom ->
        (* Everything resident the initiator does not (appear to) have; the
           filter's false positives are recovered by explicit requests. *)
        let blocks =
          Dag.topo_seq dag
          |> Seq.filter (fun (b : Block.t) ->
                 not
                   (Vegvisir_crypto.Bloom.mem bloom (Hash_id.to_raw b.Block.hash)))
          |> List.of_seq
        in
        Some (Bloom_reply { blocks })
    end
    | Frontier_request _ | Frontier_reply _ | Bloom_reply _ | Blocks_request _
    | Blocks_reply _ | Digest_request _ | Digest_reply _ | Trace_context _ ->
      None
end

(* Height-bucketed hash table backing the digest strategy: every known
   hash (resident blocks plus archived hashes, which keep their height)
   bucketed by DAG height with each bucket in Hash_id order, so the
   digest of any height interval is deterministic across replicas that
   hold the same logical set. Served from [Dag.by_height], which
   memoizes the buckets on the snapshot — a responder answering several
   narrowing rounds of one session pays the build once, not once per
   [Digest_request]. *)
module Height_table = struct
  type t = { buckets : Hash_id.t list IMap.t; max_h : int }

  let of_dag dag = { buckets = Dag.by_height dag; max_h = Dag.max_height dag }

  (* Only the heights present in [lo, hi]: both bounds come off the
     wire, so the walk must not cost one step per integer in between.
     Two splits cut the range out in O(log n); the fold then visits its
     buckets in height order. *)
  let fold_range t ~lo ~hi f acc =
    if hi < lo then acc
    else
      let bucket acc = function None -> acc | Some hs -> List.fold_left f acc hs in
      let _, at_lo, above = IMap.split lo t.buckets in
      let inside, at_hi, _ = IMap.split hi above in
      bucket (IMap.fold (fun _ hs acc -> List.fold_left f acc hs) inside (bucket acc at_lo)) at_hi

  let digest t ~lo ~hi =
    let buf = Buffer.create 256 in
    let () =
      fold_range t ~lo ~hi (fun () h -> Buffer.add_string buf (Hash_id.to_raw h)) ()
    in
    Vegvisir_crypto.Sha256.digest (Buffer.contents buf)

  let count t ~lo ~hi = fold_range t ~lo ~hi (fun n _ -> n + 1) 0
  let hashes t ~lo ~hi = List.rev (fold_range t ~lo ~hi (fun acc h -> h :: acc) [])
end

(* Narrowing thresholds: a mismatched interval spanning at most
   [leaf_span] heights — or holding at most [leaf_count] blocks — is
   answered with its explicit hash list instead of being split again.
   Small enough that a leaf costs about as much as two sub-digests. *)
let leaf_span = 8
let leaf_count = 16

module Digest_impl = struct
  type state = {
    table : Height_table.t;
    upto : int; (* heights <= upto already covered by some request *)
    pending : message;
    missing : HSet.t; (* responder hashes we lack, fetched after narrowing *)
    requested : HSet.t;
    collected : Block.t list;
    fetching : bool; (* narrowing done, now pulling explicit blocks *)
  }

  let mode = Digest

  let start dag =
    let table = Height_table.of_dag dag in
    let upto = table.Height_table.max_h in
    let req =
      Digest_request
        {
          upto;
          intervals = [ { lo = 0; hi = upto; digest = Height_table.digest table ~lo:0 ~hi:upto } ];
        }
    in
    ( {
        table;
        upto;
        pending = req;
        missing = HSet.empty;
        requested = HSet.empty;
        collected = [];
        fetching = false;
      },
      req )

  let request st = st.pending

  (* Answer one mismatched interval: equal digests vanish, small ranges
     become leaves, large ones split in half with fresh sub-digests. *)
  let narrow table { lo; hi; digest } (splits, leaves) =
    let mine = Height_table.digest table ~lo ~hi in
    if String.equal mine digest then (splits, leaves)
    else if hi - lo < leaf_span || Height_table.count table ~lo ~hi <= leaf_count
    then (splits, { lo; hi; hashes = Height_table.hashes table ~lo ~hi } :: leaves)
    else
      let mid = lo + ((hi - lo) / 2) in
      let left = { lo; hi = mid; digest = Height_table.digest table ~lo ~hi:mid } in
      let right =
        { lo = mid + 1; hi; digest = Height_table.digest table ~lo:(mid + 1) ~hi }
      in
      (right :: left :: splits, leaves)

  let empty_digest = Vegvisir_crypto.Sha256.digest ""

  (* Honest narrowing only ever sends non-empty intervals in ascending
     order, disjoint: each split answers one mismatched interval with
     its two halves, in order. *)
  let ascending intervals =
    let rec go prev_hi = function
      | [] -> true
      | ({ lo; hi; _ } : interval) :: rest -> prev_hi < lo && lo <= hi && go hi rest
    in
    go (-1) intervals

  let respond dag = function
    | Digest_request { intervals; _ } when not (ascending intervals) -> None
    | Digest_request { upto; intervals } ->
      let table = Height_table.of_dag dag in
      let intervals =
        (* Heights the initiator has never covered: everything we hold
           above its bound is by definition a mismatch against nothing. *)
        if table.Height_table.max_h > upto then
          intervals
          @ [ { lo = upto + 1; hi = table.Height_table.max_h; digest = empty_digest } ]
        else intervals
      in
      let splits, leaves =
        List.fold_left (fun acc iv -> narrow table iv acc) ([], []) intervals
      in
      Some (Digest_reply { splits = List.rev splits; leaves = List.rev leaves })
    | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
    | Blocks_request _ | Blocks_reply _ | Digest_reply _ | Trace_context _ ->
      None

  let on_reply st dag = function
    | Digest_reply { splits; leaves } when not st.fetching ->
      let missing =
        List.fold_left
          (fun acc { hashes; _ } ->
            List.fold_left
              (fun acc h ->
                if Dag.mem dag h || Dag.is_archived dag h || HSet.mem h st.requested
                then acc
                else HSet.add h acc)
              acc hashes)
          st.missing leaves
      in
      let next =
        List.filter_map
          (fun { lo; hi; digest } ->
            let mine = Height_table.digest st.table ~lo ~hi in
            if String.equal mine digest then None else Some { lo; hi; digest = mine })
          splits
      in
      let upto =
        List.fold_left
          (fun acc ({ hi; _ } : interval) -> Int.max acc hi)
          (List.fold_left (fun acc ({ hi; _ } : leaf) -> Int.max acc hi) st.upto leaves)
          splits
      in
      begin
        match next with
        | _ :: _ ->
          let req = Digest_request { upto; intervals = next } in
          ({ st with upto; missing; pending = req }, Continue req)
        | [] ->
          if HSet.is_empty missing then ({ st with upto; missing }, Done st.collected)
          else
            let req = Blocks_request { hashes = HSet.elements missing } in
            let st =
              {
                st with
                upto;
                missing = HSet.empty;
                requested = HSet.union st.requested missing;
                pending = req;
                fetching = true;
              }
            in
            (st, Continue req)
      end
    | Blocks_reply { blocks } when st.fetching ->
      let collected, next =
        recover dag ~collected:st.collected ~requested:st.requested
          ~asked:(asked_hashes st.pending) blocks
      in
      let st = { st with collected } in
      if HSet.is_empty next then (st, Done collected)
      else
        let req = Blocks_request { hashes = HSet.elements next } in
        let st = { st with requested = HSet.union st.requested next; pending = req } in
        (st, Continue req)
    | Digest_reply _ | Blocks_reply _ (* wrong phase: stale frame *)
    | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
    | Blocks_request _ | Digest_request _ | Trace_context _ ->
      (st, Foreign)
end

module Naive = Naive_impl
module Bloom = Bloom_impl
module Digest = Digest_impl

let of_mode : mode -> (module S) = function
  | Naive -> (module Naive)
  | Bloom -> (module Bloom)
  | Digest -> (module Digest)

type packed = Packed : (module S with type state = 's) * 's -> packed

let start_session m dag =
  match m with
  | Naive ->
    let st, msg = Naive.start dag in
    (Packed ((module Naive), st), msg)
  | Bloom ->
    let st, msg = Bloom.start dag in
    (Packed ((module Bloom), st), msg)
  | Digest ->
    let st, msg = Digest.start dag in
    (Packed ((module Digest), st), msg)

let session_mode (Packed ((module M), _)) = M.mode
let session_request (Packed ((module M), st)) = M.request st

let session_step (Packed ((module M), st)) dag m =
  let st, out = M.on_reply st dag m in
  (Packed ((module M), st), out)

let respond dag m =
  match m with
  | Frontier_request _ -> Naive.respond dag m
  | Bloom_request _ -> Bloom.respond dag m
  | Digest_request _ -> Digest.respond dag m
  | Blocks_request { hashes } -> Some (respond_blocks dag hashes)
  | Frontier_reply _ | Bloom_reply _ | Blocks_reply _ | Digest_reply _
  | Trace_context _ ->
    None
