type mode = Sync_strategy.mode = Naive | Bloom | Digest

module Mode = Sync_strategy.Mode

type interval = Sync_strategy.interval = { lo : int; hi : int; digest : string }
type leaf = Sync_strategy.leaf = { lo : int; hi : int; hashes : Hash_id.t list }

type message = Sync_strategy.message =
  | Frontier_request of { level : int }
  | Frontier_reply of { level : int; blocks : Block.t list }
  | Bloom_request of { filter : string }
  | Bloom_reply of { blocks : Block.t list }
  | Blocks_request of { hashes : Hash_id.t list }
  | Blocks_reply of { blocks : Block.t list }
  | Digest_request of { upto : int; intervals : interval list }
  | Digest_reply of { splits : interval list; leaves : leaf list }
  | Trace_context of { trace : string; span : string }

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

let encode_message = Sync_strategy.encode_message
let decode_message = Sync_strategy.decode_message
let message_size = Sync_strategy.message_size
let message_equal = Sync_strategy.message_equal
let is_request = Sync_strategy.is_request
let reply_blocks = Sync_strategy.reply_blocks
let advertised_hashes = Sync_strategy.advertised_hashes
let respond = Sync_strategy.respond
let session_trace_ids = Sync_strategy.session_trace_ids
let trace_sampled = Sync_strategy.trace_sampled

type session = { strategy : Sync_strategy.packed; stats : stats }

let track_send session m =
  {
    session with
    stats =
      {
        session.stats with
        messages = session.stats.messages + 1;
        bytes_sent = session.stats.bytes_sent + message_size m;
      };
  }

let start mode dag =
  let strategy, m = Sync_strategy.start_session mode dag in
  let session = { strategy; stats = empty_stats } in
  (track_send session m, m)

let session_mode session = Sync_strategy.session_mode session.strategy
let current_request session = Sync_strategy.session_request session.strategy

type step =
  | Send of message
  | Finished of { new_blocks : Block.t list; stats : stats }
  | Ignored

(* Order a set of blocks so that each block's parents are either already in
   [dag] (or archived there) or appear earlier in the output. Blocks whose
   parents cannot be satisfied locally (e.g. pruned on every reachable
   peer) are appended at the end in deterministic order, so the caller can
   buffer them and recover the missing ancestry from a superpeer's support
   chain (SIV-I). *)
let insertable_order dag blocks =
  let pending = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      if not (Dag.mem dag b.Block.hash) then
        Hashtbl.replace pending b.Block.hash b)
    blocks;
  let emitted = Hashtbl.create 16 in
  let satisfied (b : Block.t) =
    List.for_all
      (fun p ->
        Dag.mem dag p || Dag.is_archived dag p || Hashtbl.mem emitted p)
      b.Block.parents
  in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let ready =
      Hashtbl.fold
        (fun _ b acc -> if satisfied b then b :: acc else acc)
        pending []
    in
    let ready = List.sort Block.compare ready in
    List.iter
      (fun (b : Block.t) ->
        Hashtbl.remove pending b.Block.hash;
        Hashtbl.replace emitted b.Block.hash ();
        out := b :: !out;
        progress := true)
      ready
  done;
  let unsatisfied =
    List.sort Block.compare (Hashtbl.fold (fun _ b acc -> b :: acc) pending [])
  in
  List.rev_append !out unsatisfied

let receive_stats session dag blocks m =
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
        bytes_received = session.stats.bytes_received + message_size m;
        blocks_received = session.stats.blocks_received + List.length blocks;
        redundant_blocks = session.stats.redundant_blocks + redundant;
      };
  }

let handle_reply session dag m =
  if is_request m then invalid_arg "Reconcile.handle_reply: not a reply";
  match Sync_strategy.session_step session.strategy dag m with
  | strategy, Sync_strategy.Foreign ->
    (* A reply that does not belong to this session's strategy: a stale
       or foreign transport frame. Dropping it (rather than raising)
       keeps a malicious or confused responder from crashing the
       driver. *)
    ({ session with strategy }, Ignored)
  | strategy, Sync_strategy.Continue next ->
    let session = receive_stats { session with strategy } dag (reply_blocks m) m in
    (track_send session next, Send next)
  | strategy, Sync_strategy.Done blocks ->
    let session = receive_stats { session with strategy } dag (reply_blocks m) m in
    ( session,
      Finished { new_blocks = insertable_order dag blocks; stats = session.stats } )

let sync_dags mode dst src =
  let session, first = start mode dst in
  let rec loop session dst request =
    match respond src request with
    | None -> assert false
    | Some reply -> begin
      match handle_reply session dst reply with
      | session, Send next -> loop session dst next
      | _, Ignored -> assert false (* local loop never duplicates replies *)
      | _, Finished { new_blocks; stats } ->
        let dst =
          List.fold_left
            (fun dst b ->
              match Dag.add dst b with Ok dst -> dst | Error _ -> dst)
            dst new_blocks
        in
        (dst, stats)
    end
  in
  loop session dst first
