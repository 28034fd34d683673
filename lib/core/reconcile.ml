module HSet = Hash_id.Set

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

(* Wire tags 1, 2 and 5-8 predate the digest mode and must stay
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

(* The hashes a [Blocks_request] named; nothing for any other message. *)
let asked_hashes = function
  | Blocks_request { hashes } -> hashes
  | Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
  | Blocks_reply _ | Digest_request _ | Digest_reply _ | Trace_context _ ->
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

(* ------------------------------------------------------------------ *)
(* Responder                                                            *)

(* The longest prefix of [blocks] whose reply (tag and list count, then
   the blocks) encodes within [Wire.max_frame], the longest frame a
   receiving socket accepts. The sequence is forced only that far. *)
let fit_frame blocks =
  let rec go used acc blocks =
    match blocks () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons (b, rest) ->
      let used = used + Block.byte_size b in
      if used > Wire.max_frame then List.rev acc else go used (b :: acc) rest
  in
  go 5 [] blocks

(* Honest initiators name [HSet.elements]: strictly ascending, so
   repeat-free at any length. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> Hash_id.compare a b < 0 && ascending rest
  | [] | [ _ ] -> true

(* Shared by bloom and digest gap recovery: every resident block named,
   once, in the order first named, up to a frame. Only a list that is
   not ascending pays for a set of the hashes seen. The initiator asks
   again for whatever a reply that brought something new left out (see
   [recover]). *)
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
  Blocks_reply { blocks = fit_frame (Seq.filter_map (Dag.find dag) (List.to_seq hashes)) }

let respond_frontier dag ~level =
  let hashes = Dag.level_frontier dag (max 1 level) in
  Frontier_reply { level; blocks = List.filter_map (Dag.find dag) (HSet.elements hashes) }

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

(* Everything resident the initiator does not (appear to) have, parents
   first, up to a frame. The filter's false positives are recovered by
   explicit requests. The reply is a prefix of a parents-first walk, so
   no block in it misses a parent the cap cut off: the session ends
   cleanly, and the next session's filter covers what arrived. *)
let respond_bloom dag ~filter =
  match Vegvisir_crypto.Bloom.of_string filter with
  | None -> Bloom_reply { blocks = [] }
  | Some bloom ->
    let lacks (b : Block.t) =
      not (Vegvisir_crypto.Bloom.mem bloom (Hash_id.to_raw b.Block.hash))
    in
    Bloom_reply { blocks = fit_frame (Seq.filter lacks (Dag.topo_seq dag)) }

(* Narrowing thresholds: a mismatched interval spanning at most
   [leaf_span] heights — or holding at most [leaf_count] blocks — is
   answered with its explicit hash list instead of being split again.
   Small enough that a leaf costs about as much as two sub-digests. *)
let leaf_span = 8
let leaf_count = 16

(* Answer one mismatched interval: equal digests vanish, small ranges
   become leaves, large ones split in half with fresh sub-digests. The
   digest of an interval is [Dag.range_digest]: the Hash_id-ordered
   hashes of its heights, resident and archived, so replicas that hold
   the same logical set agree on it. *)
let narrow dag { lo; hi; digest } (splits, leaves) =
  let mine = Dag.range_digest dag ~lo ~hi in
  if String.equal mine digest then (splits, leaves)
  else if hi - lo < leaf_span || Dag.fold_heights dag ~lo ~hi (fun n _ -> n + 1) 0 <= leaf_count
  then
    let hashes = List.rev (Dag.fold_heights dag ~lo ~hi (fun acc h -> h :: acc) []) in
    (splits, { lo; hi; hashes } :: leaves)
  else
    let mid = lo + ((hi - lo) / 2) in
    let left = { lo; hi = mid; digest = Dag.range_digest dag ~lo ~hi:mid } in
    let right = { lo = mid + 1; hi; digest = Dag.range_digest dag ~lo:(mid + 1) ~hi } in
    (right :: left :: splits, leaves)

let empty_digest = Vegvisir_crypto.Sha256.digest ""

(* Honest narrowing only ever sends non-empty intervals in ascending
   order, disjoint: each split answers one mismatched interval with its
   two halves, in order. *)
let well_ordered intervals =
  let rec go prev_hi = function
    | [] -> true
    | ({ lo; hi; _ } : interval) :: rest -> prev_hi < lo && lo <= hi && go hi rest
  in
  go (-1) intervals

let respond_digest dag ~upto intervals =
  if not (well_ordered intervals) then None
  else
    let max_h = Dag.max_height dag in
    let intervals =
      (* Heights the initiator has never covered: everything we hold
         above its bound is by definition a mismatch against nothing. *)
      if max_h > upto then intervals @ [ { lo = upto + 1; hi = max_h; digest = empty_digest } ]
      else intervals
    in
    let splits, leaves =
      List.fold_left (fun acc iv -> narrow dag iv acc) ([], []) intervals
    in
    Some (Digest_reply { splits = List.rev splits; leaves = List.rev leaves })

let respond dag = function
  | Frontier_request { level } -> Some (respond_frontier dag ~level)
  | Bloom_request { filter } -> Some (respond_bloom dag ~filter)
  | Digest_request { upto; intervals } -> respond_digest dag ~upto intervals
  | Blocks_request { hashes } -> Some (respond_blocks dag hashes)
  | Frontier_reply _ | Bloom_reply _ | Blocks_reply _ | Digest_reply _
  | Trace_context _ ->
    None

(* ------------------------------------------------------------------ *)
(* Initiator                                                            *)

type stats = {
  rounds : int;
  messages : int;
  bytes_sent : int;
  bytes_received : int;
  blocks_received : int;
  redundant_blocks : int;
}

let empty_stats =
  {
    rounds = 0;
    messages = 0;
    bytes_sent = 0;
    bytes_received = 0;
    blocks_received = 0;
    redundant_blocks = 0;
  }

let add_stats a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    bytes_sent = a.bytes_sent + b.bytes_sent;
    bytes_received = a.bytes_received + b.bytes_received;
    blocks_received = a.blocks_received + b.blocks_received;
    redundant_blocks = a.redundant_blocks + b.redundant_blocks;
  }

let stats_equal a b =
  Int.equal a.rounds b.rounds
  && Int.equal a.messages b.messages
  && Int.equal a.bytes_sent b.bytes_sent
  && Int.equal a.bytes_received b.bytes_received
  && Int.equal a.blocks_received b.blocks_received
  && Int.equal a.redundant_blocks b.redundant_blocks

(* Gap recovery's memory, once a bloom or digest session pulls explicit
   blocks: the responder's blocks absent locally (the latest reply's
   first), and every hash asked for so far. *)
type pull = { collected : Block.t list; requested : HSet.t }

type strategy =
  | Naive_state of { level : int; last_reply_count : int }
      (* the level in flight, and the previous reply's block count *)
  | Bloom_state of pull
  | Digest_state of { snapshot : Dag.t; upto : int; missing : HSet.t }
      (* narrowing: the DAG the first request's digest was computed
         from, heights [<= upto] covered by some request so far, and the
         responder hashes we lack, fetched once it ends *)
  | Digest_fetch of pull

(* One reply step: the next request, or the end of the session with the
   responder's blocks absent locally (in any order; [handle_reply]
   orders them parents first), or a reply this state does not take. *)
type outcome = Continue of message | Done of Block.t list | Foreign

type session = { strategy : strategy; pending : message; stats : stats }

type step =
  | Send of message
  | Finished of { new_blocks : Block.t list; stats : stats }
  | Ignored

let track_send session m =
  {
    session with
    pending = m;
    stats =
      {
        session.stats with
        messages = session.stats.messages + 1;
        bytes_sent = session.stats.bytes_sent + message_size m;
      };
  }

let start mode dag =
  let strategy, first =
    match mode with
    | Naive ->
      (Naive_state { level = 1; last_reply_count = -1 }, Frontier_request { level = 1 })
    | Bloom ->
      ( Bloom_state { collected = []; requested = HSet.empty },
        Bloom_request { filter = bloom_of_dag dag } )
    | Digest ->
      let upto = Dag.max_height dag in
      let digest = Dag.range_digest dag ~lo:0 ~hi:upto in
      ( Digest_state { snapshot = dag; upto; missing = HSet.empty },
        Digest_request { upto; intervals = [ { lo = 0; hi = upto; digest } ] } )
  in
  let session = track_send { strategy; pending = first; stats = empty_stats } first in
  (session, first)

let current_request session = session.pending

(* A frontier reply ends the naive session once its unknown blocks
   bridge to local (or archived) ancestry, or once escalating stops
   growing the reply; otherwise ask one level deeper. *)
let naive_step ~level ~last_reply_count dag blocks =
  let unknown =
    List.filter (fun (b : Block.t) -> not (Dag.mem dag b.Block.hash)) blocks
  in
  let in_reply =
    List.fold_left (fun acc (b : Block.t) -> HSet.add b.Block.hash acc) HSet.empty blocks
  in
  let bridged =
    List.for_all
      (fun (b : Block.t) ->
        List.for_all
          (fun p -> Dag.mem dag p || Dag.is_archived dag p || HSet.mem p in_reply)
          b.Block.parents)
      unknown
  in
  let fixpoint = Int.equal (List.length blocks) last_reply_count in
  let last_reply_count = List.length blocks in
  if bridged || fixpoint then (Naive_state { level; last_reply_count }, Done unknown)
  else
    ( Naive_state { level = level + 1; last_reply_count },
      Continue (Frontier_request { level = level + 1 }) )

(* One round of gap recovery, after a reply delivering [blocks] to the
   request that named [asked]. The next request names:
   - parents neither local, collected, nor asked for before: false
     positives of a probabilistic advertisement, or genuinely absent
     ancestry;
   - if the reply brought a block neither local nor collected before,
     every hash of [asked] still missing. A responder stops a
     [Blocks_reply] before it would pass [Wire.max_frame], so those may
     have been cut off rather than refused.
   A reply that brings nothing new repeats nothing, so every repeat
   follows progress and an honest session ends. *)
let recover dag { collected; requested } ~asked blocks =
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
  let next =
    match fresh with
    | [] -> gaps
    | _ :: _ ->
      List.fold_left (fun acc h -> if missing h then HSet.add h acc else acc) gaps asked
  in
  if HSet.is_empty next then ({ collected; requested }, Done collected)
  else
    ( { collected; requested = HSet.union requested next },
      Continue (Blocks_request { hashes = HSet.elements next }) )

(* One narrowing round: leaf hashes we lack join [missing], and every
   split whose digest differs from ours is narrowed next. Our digests
   come from [snapshot], so every round compares against the state the
   session opened with; only [missing] consults the live [dag]. When
   nothing is left to narrow, the session fetches [missing] explicitly. *)
let digest_step ~snapshot ~upto ~missing dag ~splits ~leaves =
  let missing =
    List.fold_left
      (fun acc { hashes; _ } ->
        List.fold_left
          (fun acc h ->
            if Dag.mem dag h || Dag.is_archived dag h then acc else HSet.add h acc)
          acc hashes)
      missing leaves
  in
  let next =
    List.filter_map
      (fun { lo; hi; digest } ->
        let mine = Dag.range_digest snapshot ~lo ~hi in
        if String.equal mine digest then None else Some { lo; hi; digest = mine })
      splits
  in
  let upto =
    List.fold_left
      (fun acc ({ hi; _ } : interval) -> Int.max acc hi)
      (List.fold_left (fun acc ({ hi; _ } : leaf) -> Int.max acc hi) upto leaves)
      splits
  in
  match next with
  | _ :: _ ->
    ( Digest_state { snapshot; upto; missing },
      Continue (Digest_request { upto; intervals = next }) )
  | [] ->
    if HSet.is_empty missing then (Digest_state { snapshot; upto; missing }, Done [])
    else
      ( Digest_fetch { collected = []; requested = missing },
        Continue (Blocks_request { hashes = HSet.elements missing }) )

(* A reply the session's strategy does not take in its current phase
   (a stale duplicate, or another mode's frame) is [Foreign]. *)
let reply_step strategy ~pending dag m =
  match (strategy, m) with
  | Naive_state { level; last_reply_count }, Frontier_reply { level = l; blocks }
    when Int.equal l level ->
    naive_step ~level ~last_reply_count dag blocks
  | Bloom_state pull, (Bloom_reply { blocks } | Blocks_reply { blocks }) ->
    let pull, out = recover dag pull ~asked:(asked_hashes pending) blocks in
    (Bloom_state pull, out)
  | Digest_state { snapshot; upto; missing }, Digest_reply { splits; leaves } ->
    digest_step ~snapshot ~upto ~missing dag ~splits ~leaves
  | Digest_fetch pull, Blocks_reply { blocks } ->
    let pull, out = recover dag pull ~asked:(asked_hashes pending) blocks in
    (Digest_fetch pull, out)
  | ( (Naive_state _ | Bloom_state _ | Digest_state _ | Digest_fetch _),
      ( Frontier_request _ | Frontier_reply _ | Bloom_request _ | Bloom_reply _
      | Blocks_request _ | Blocks_reply _ | Digest_request _ | Digest_reply _
      | Trace_context _ ) ) ->
    (strategy, Foreign)

(* Order a set of blocks so that each block's parents are either already in
   [dag] (or archived there) or appear earlier in the output. Blocks whose
   parents cannot be satisfied locally (e.g. pruned on every reachable
   peer) are appended at the end in deterministic order, so the caller can
   buffer them and recover the missing ancestry from a superpeer's support
   chain (SIV-I).

   A block's round is 0 when every parent is resident or archived, and
   otherwise one more than its latest pending parent's round; a parent
   missing everywhere, or one that has no round, leaves it none
   ([never]). Output is by (round, hash): what emitting, round after
   round, each block whose parents earlier rounds satisfied, in hash
   order, gives. Rounds are memoized depth-first on an explicit stack,
   since a chain can be as deep as a frame is long; a block reads as
   [never] while it is being visited, which only a hash cycle sees. *)
type slot = { block : Block.t; mutable round : int }
type visit = Enter of slot | Leave of slot

let unvisited = -1
let never = max_int

let insertable_order dag blocks =
  let slots =
    List.fold_left
      (fun acc (b : Block.t) ->
        if Dag.mem dag b.Block.hash then acc
        else Hash_id.Map.add b.Block.hash { block = b; round = unvisited } acc)
      Hash_id.Map.empty blocks
  in
  let settled p = Dag.mem dag p || Dag.is_archived dag p in
  let rec visit = function
    | [] -> ()
    | Leave s :: stack ->
      s.round <-
        List.fold_left
          (fun acc p ->
            if settled p then acc
            else
              match Hash_id.Map.find_opt p slots with
              | Some ps when ps.round < never -> Int.max acc (ps.round + 1)
              | Some _ | None -> never)
          0 s.block.Block.parents;
      visit stack
    | Enter s :: stack ->
      if not (Int.equal s.round unvisited) then visit stack
      else begin
        s.round <- never;
        let enter stack p =
          match Hash_id.Map.find_opt p slots with
          | Some ps when Int.equal ps.round unvisited && not (settled p) -> Enter ps :: stack
          | Some _ | None -> stack
        in
        visit (List.fold_left enter (Leave s :: stack) s.block.Block.parents)
      end
  in
  Hash_id.Map.iter (fun _ s -> visit [ Enter s ]) slots;
  Hash_id.Map.fold (fun _ s acc -> s :: acc) slots []
  |> List.rev
  |> List.stable_sort (fun a b -> Int.compare a.round b.round)
  |> List.map (fun s -> s.block)

let receive_stats session dag blocks ~size =
  let redundant =
    List.length (List.filter (fun (b : Block.t) -> Dag.mem dag b.Block.hash) blocks)
  in
  {
    session with
    stats =
      {
        session.stats with
        rounds = session.stats.rounds + 1;
        messages = session.stats.messages + 1;
        bytes_received = session.stats.bytes_received + size;
        blocks_received = session.stats.blocks_received + List.length blocks;
        redundant_blocks = session.stats.redundant_blocks + redundant;
      };
  }

let handle_reply session dag ~size m =
  if is_request m then invalid_arg "Reconcile.handle_reply: not a reply";
  match reply_step session.strategy ~pending:session.pending dag m with
  | _, Foreign ->
    (* Dropping a stale or foreign frame (rather than raising) keeps a
       malicious or confused responder from crashing the driver. *)
    (session, Ignored)
  | strategy, Continue next ->
    let session = receive_stats { session with strategy } dag (reply_blocks m) ~size in
    (track_send session next, Send next)
  | strategy, Done blocks ->
    let session = receive_stats { session with strategy } dag (reply_blocks m) ~size in
    ( session,
      Finished { new_blocks = insertable_order dag blocks; stats = session.stats } )

let pull mode dst src =
  let session, first = start mode dst in
  let rec loop session request =
    match respond src request with
    | None -> assert false
    | Some reply -> begin
      match handle_reply session dst ~size:(message_size reply) reply with
      | session, Send next -> loop session next
      | _, Ignored -> assert false (* local loop never duplicates replies *)
      | _, Finished { new_blocks; stats } -> (new_blocks, stats)
    end
  in
  loop session first

let sync_dags mode dst src =
  let blocks, stats = pull mode dst src in
  let add dst b = match Dag.add dst b with Ok dst -> dst | Error _ -> dst in
  (List.fold_left add dst blocks, stats)
