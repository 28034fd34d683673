module HSet = Hash_id.Set
module HMap = Hash_id.Map
module Int_map = Map.Make (Int)

(* Canonical-order key: blocks are emitted parents-first, ties broken by
   (timestamp, hash). *)
let key_compare (t1, h1) (t2, h2) =
  match Timestamp.compare t1 t2 with 0 -> Hash_id.compare h1 h2 | c -> c

(* The canonical topological order is an index maintained by [add], not a
   traversal recomputed per call.

   [Rev] holds the order newest-emitted first, so the monotone fast path
   in [add] — a block whose (timestamp, hash) key exceeds every resident
   key is always emitted last — is an O(1) cons. [Both] additionally
   memoizes the forward list handed out by {!topo_order}/{!topo_seq}.
   [Dirty] marks an invalidated cache (a mid-order insertion or a prune);
   the next query re-runs Kahn once and re-memoizes.

   The field is mutable purely as a memo: every state recomputes to the
   same canonical order, so aliased snapshots sharing a cell always agree. *)
type order_cache =
  | Dirty
  | Rev of Block.t list
  | Both of Block.t list * Block.t list  (** (reversed, forward) *)

type t = {
  blocks : Block.t HMap.t; (* resident blocks *)
  kids : HSet.t HMap.t; (* hash -> children (resident or not-yet-known) *)
  frontier : HSet.t;
  heights : int HMap.t; (* resident and archived *)
  archived : HSet.t; (* pruned: hash+height retained, body dropped *)
  genesis : Block.t option;
  bytes : int;
  max_height_ : int; (* cached: max over [heights], 0 when empty *)
  buckets : HSet.t Int_map.t;
      (* [heights] inverted: every known hash under its height, the
         digest strategy's universe; kept by [add] and [decode], and
         untouched by [prune], which keeps heights *)
  max_key : (Timestamp.t * Hash_id.t) option;
      (* upper bound on every key ever resident; gates the O(1) append
         fast path of the order cache *)
  mutable order : order_cache;
  mutable span_digest : string option;
      (* memo: [range_digest] over every height. An in-sync peer asks
         for it in every session, from a snapshot that has not moved
         since the last one; cleared by [add]/[prune] *)
  mutable witnessed : HSet.t HMap.t option;
      (* hash -> creators of proper descendants; [None] until the first
         [witness_set] or [prune] on this snapshot builds it, after
         which [add] keeps it. Monotone: entries are never weakened by
         later pruning of the descendants that contributed them (a
         witness signal, once seen, is evidence of storage — §IV-H);
         only pruning the block itself drops its entry. *)
}

type add_error =
  | Duplicate
  | Missing_parents of Hash_id.Set.t
  | Second_genesis

let empty =
  {
    blocks = HMap.empty;
    kids = HMap.empty;
    frontier = HSet.empty;
    heights = HMap.empty;
    archived = HSet.empty;
    genesis = None;
    bytes = 0;
    max_height_ = 0;
    buckets = Int_map.empty;
    max_key = None;
    order = Both ([], []);
    (* Every DAG grows from this shared value, so no query may write a
       memo into it: its digest is filled in here, and its witness
       index is never built, as it holds no block to ask about. *)
    span_digest = Some (Vegvisir_crypto.Sha256.digest "");
    witnessed = None;
  }

let mem t h = HMap.mem h t.blocks
let known t h = HMap.mem h t.blocks || HSet.mem h t.archived
let find t h = HMap.find_opt h t.blocks
let cardinal t = HMap.cardinal t.blocks
let genesis t = t.genesis
let frontier t = t.frontier
let parents t h = match find t h with None -> [] | Some b -> b.Block.parents

let children t h = Option.value (HMap.find_opt h t.kids) ~default:HSet.empty

let height t h = HMap.find_opt h t.heights
let max_height t = t.max_height_

let missing_parents t (b : Block.t) =
  List.fold_left
    (fun acc p -> if known t p then acc else HSet.add p acc)
    HSet.empty b.Block.parents

(* Credit [b]'s creator as a witness to every resident ancestor. The walk
   cuts off where the creator is already recorded — the invariant "if c
   is recorded at x, c is recorded at every resident ancestor of x" makes
   the cutoff sound and each (block, creator) pair is inserted at most
   once over the DAG's lifetime, so maintenance is amortized O(1) per
   (ancestor, new creator). *)
let credit_witness witnessed blocks (b : Block.t) =
  let c = b.Block.creator in
  let rec up acc stack =
    match stack with
    | [] -> acc
    | x :: rest -> begin
      match HMap.find_opt x blocks with
      | None -> up acc rest (* archived or unknown: knowledge ends here *)
      | Some (xb : Block.t) ->
        let cur = Option.value (HMap.find_opt x acc) ~default:HSet.empty in
        if HSet.mem c cur then up acc rest
        else
          up
            (HMap.add x (HSet.add c cur) acc)
            (List.rev_append xb.Block.parents rest)
    end
  in
  up witnessed b.Block.parents

let bucket_add height h buckets =
  Int_map.update height
    (fun s -> Some (HSet.add h (Option.value s ~default:HSet.empty)))
    buckets

let add t (b : Block.t) =
  let h = b.Block.hash in
  if known t h then Error Duplicate
  else if b.Block.parents = [] && t.genesis <> None then Error Second_genesis
  else begin
    let missing = missing_parents t b in
    if not (HSet.is_empty missing) then Error (Missing_parents missing)
    else begin
      let height =
        match b.Block.parents with
        | [] -> 0
        | ps ->
          1
          + List.fold_left
              (fun acc p ->
                Int.max acc (Option.value (HMap.find_opt p t.heights) ~default:0))
              0 ps
      in
      let kids =
        List.fold_left
          (fun kids p ->
            HMap.update p
              (fun s -> Some (HSet.add h (Option.value s ~default:HSet.empty)))
              kids)
          t.kids b.Block.parents
      in
      let frontier =
        HSet.add h
          (List.fold_left (fun f p -> HSet.remove p f) t.frontier b.Block.parents)
      in
      let key = (b.Block.timestamp, h) in
      (* A key above every resident key is emitted last by Kahn (it is
         never the minimum of the ready set while another block remains),
         so the cached order extends by a cons. Anything else lands
         mid-order: invalidate and let the next query re-run Kahn once. *)
      let order =
        match t.order with
        | Dirty -> Dirty
        | Rev rev | Both (rev, _) -> begin
          match t.max_key with
          | Some mk when key_compare key mk < 0 -> Dirty
          | Some _ | None -> Rev (b :: rev)
        end
      in
      let max_key =
        match t.max_key with
        | Some mk when key_compare mk key > 0 -> Some mk
        | Some _ | None -> Some key
      in
      Ok
        {
          blocks = HMap.add h b t.blocks;
          kids;
          frontier;
          heights = HMap.add h height t.heights;
          archived = t.archived;
          genesis = (if b.Block.parents = [] then Some b else t.genesis);
          bytes = t.bytes + Block.byte_size b;
          max_height_ = Int.max t.max_height_ height;
          buckets = bucket_add height h t.buckets;
          max_key;
          order;
          span_digest = None;
          witnessed = Option.map (fun w -> credit_witness w t.blocks b) t.witnessed;
        }
    end
  end

(* L(n) = L(n-1) ∪ parents(L(n-1)) as a layered BFS: only hashes the
   previous layer added can bring new parents, and a layer that adds
   nothing is the fixpoint, where the walk stops however large [n] is
   (a wire level can be any u32). *)
let level_frontier t n =
  if n < 1 then invalid_arg "Dag.level_frontier: level must be >= 1";
  let rec go n acc added =
    if n <= 1 || HSet.is_empty added then acc
    else begin
      let next =
        HSet.fold
          (fun h next ->
            List.fold_left
              (fun next p ->
                if mem t p && not (HSet.mem p acc) then HSet.add p next
                else next)
              next (parents t h))
          added HSet.empty
      in
      go (n - 1) (HSet.union acc next) next
    end
  in
  go n t.frontier t.frontier

let ancestors t h =
  let rec go frontier acc =
    if HSet.is_empty frontier then acc
    else begin
      let next =
        HSet.fold
          (fun x acc' ->
            List.fold_left
              (fun acc' p -> if HSet.mem p acc then acc' else HSet.add p acc')
              acc' (parents t x))
          frontier HSet.empty
      in
      go next (HSet.union acc next)
    end
  in
  go (HSet.singleton h) HSet.empty

(* An archived hash is reached but not expanded: its children entry
   outlives the prune, but the witness index cannot credit through a
   block whose body (and so its parents) is gone, so the oracle built on
   this traversal must stop there too — the mirror of [ancestors]. *)
let descendants t h =
  let rec go frontier acc =
    if HSet.is_empty frontier then acc
    else begin
      let next =
        HSet.fold
          (fun x acc' ->
            if not (mem t x) then acc'
            else
              HSet.fold
                (fun c acc' -> if HSet.mem c acc then acc' else HSet.add c acc')
                (children t x) acc')
          frontier HSet.empty
      in
      go next (HSet.union acc next)
    end
  in
  go (HSet.singleton h) HSet.empty

let is_ancestor t ~ancestor ~descendant =
  HSet.mem ancestor (ancestors t descendant)

module Ready = Set.Make (struct
  type t = Timestamp.t * Hash_id.t

  let compare = key_compare
end)

(* Kahn's algorithm with a deterministic ready set: parents first, ties by
   (timestamp, hash). Pruned parents count as already emitted. This is the
   definition of the canonical order; the cache above must reproduce it
   byte-identically (pinned by a qcheck equivalence suite). *)
let kahn t =
  let indegree =
    HMap.map
      (fun (b : Block.t) ->
        List.length (List.filter (fun p -> mem t p) b.Block.parents))
      t.blocks
  in
  let ready =
    HMap.fold
      (fun h d acc ->
        if d = 0 then
          let b = HMap.find h t.blocks in
          Ready.add (b.Block.timestamp, h) acc
        else acc)
      indegree Ready.empty
  in
  let rec go ready indegree acc =
    match Ready.min_elt_opt ready with
    | None -> List.rev acc
    | Some ((_, h) as elt) ->
      let ready = Ready.remove elt ready in
      let b = HMap.find h t.blocks in
      let ready, indegree =
        HSet.fold
          (fun c (ready, indegree) ->
            match HMap.find_opt c indegree with
            | None -> (ready, indegree) (* child not resident *)
            | Some d ->
              let d = d - 1 in
              let indegree = HMap.add c d indegree in
              if d = 0 then
                let cb = HMap.find c t.blocks in
                (Ready.add (cb.Block.timestamp, c) ready, indegree)
              else (ready, indegree))
          (children t h) (ready, indegree)
      in
      go ready indegree (b :: acc)
  in
  go ready indegree []

let force_order t =
  match t.order with
  | Both (_, fwd) -> fwd
  | Rev rev ->
    let fwd = List.rev rev in
    t.order <- Both (rev, fwd);
    fwd
  | Dirty ->
    let fwd = kahn t in
    t.order <- Both (List.rev fwd, fwd);
    fwd

let topo_order = force_order
let topo_seq t = List.to_seq (force_order t)

let blocks t = List.map snd (HMap.bindings t.blocks)
let blocks_seq t = Seq.map snd (HMap.to_seq t.blocks)
let branch_width t = HSet.cardinal t.frontier

(* The index [add] would have kept since [empty]. A snapshot without
   one has no prune in its history, so every resident block would have
   credited its creator through the resident ancestry it has now, and
   the credit walk's result does not depend on the order of the blocks.
   Forced only once a block is resident, so never on [empty]. *)
let force_witness t =
  match t.witnessed with
  | Some w -> w
  | None ->
    let w = HMap.fold (fun _ b w -> credit_witness w t.blocks b) t.blocks HMap.empty in
    t.witnessed <- Some w;
    w

let witness_set t h =
  match HMap.find_opt h t.blocks with
  | None -> HSet.empty
  | Some b ->
    HSet.remove b.Block.creator
      (Option.value (HMap.find_opt h (force_witness t)) ~default:HSet.empty)

let witness_count t h = HSet.cardinal (witness_set t h)

(* Multi-source DFS toward genesis through resident blocks; archived
   hashes are included where reached (knowledge ends there), exactly like
   {!ancestors}. One traversal regardless of how many query hashes the
   closure is seeded with. *)
let below t hs =
  let rec go stack acc =
    match stack with
    | [] -> acc
    | x :: rest ->
      if HSet.mem x acc then go rest acc
      else begin
        let acc = HSet.add x acc in
        match HMap.find_opt x t.blocks with
        | None -> go rest acc
        | Some (xb : Block.t) -> go (List.rev_append xb.Block.parents rest) acc
      end
  in
  go (List.filter (fun h -> known t h) hs) HSet.empty

(* Only the heights present in [lo, hi]: both bounds come off the wire,
   so the walk must not cost one step per integer in between. Two splits
   cut the range out in O(log n); the fold then visits its buckets in
   height order, each in ascending Hash_id order. *)
let fold_heights t ~lo ~hi f acc =
  if hi < lo then acc
  else
    let bucket acc hs = HSet.fold (fun h acc -> f acc h) hs acc in
    let at acc = function None -> acc | Some hs -> bucket acc hs in
    let _, at_lo, above = Int_map.split lo t.buckets in
    let inside, at_hi, _ = Int_map.split hi above in
    at (Int_map.fold (fun _ hs acc -> bucket acc hs) inside (at acc at_lo)) at_hi

let range_digest t ~lo ~hi =
  let hash () =
    let ctx = Vegvisir_crypto.Sha256.init () in
    fold_heights t ~lo ~hi (fun () h -> Vegvisir_crypto.Sha256.feed ctx (Hash_id.to_raw h)) ();
    Vegvisir_crypto.Sha256.finalize ctx
  in
  if lo > 0 || hi < t.max_height_ then hash ()
  else
    match t.span_digest with
    | Some d -> d
    | None ->
      let d = hash () in
      t.span_digest <- Some d;
      d

let prune t h =
  match HMap.find_opt h t.blocks with
  | None -> t
  | Some b ->
    if b.Block.parents = [] then invalid_arg "Dag.prune: cannot prune genesis";
    if HSet.mem h t.frontier then invalid_arg "Dag.prune: cannot prune a frontier block";
    (* The index is built before the first prune, so the credit a pruned
       block deposited on its ancestors stays (monotone, as if [add] had
       kept it all along). *)
    let witnessed = HMap.remove h (force_witness t) in
    {
      t with
      blocks = HMap.remove h t.blocks;
      archived = HSet.add h t.archived;
      bytes = t.bytes - Block.byte_size b;
      witnessed = Some witnessed;
      (* Removing a vertex relaxes its children's ordering constraint, so
         they may legitimately move earlier in the canonical order:
         invalidate rather than patch. [max_key] stays a (possibly stale)
         upper bound, which only costs fast-path opportunities, never
         correctness. *)
      order = Dirty;
      span_digest = None;
    }

let is_archived t h = HSet.mem h t.archived
let archived_hashes t = t.archived
let archived_count t = HSet.cardinal t.archived
let byte_size t = t.bytes

module Oracle = struct
  let topo_order = kahn

  (* The paper's definition verbatim: refold the whole set [n - 1] times. *)
  let level_frontier t n =
    if n < 1 then invalid_arg "Dag.Oracle.level_frontier: level must be >= 1";
    let rec go n set =
      if n <= 1 then set
      else begin
        let expanded =
          HSet.fold
            (fun h acc ->
              List.fold_left
                (fun acc p -> if mem t p then HSet.add p acc else acc)
                acc (parents t h))
            set set
        in
        go (n - 1) expanded
      end
    in
    go n t.frontier

  let below t hs =
    List.fold_left
      (fun acc h ->
        if known t h then HSet.union (HSet.add h acc) (ancestors t h) else acc)
      HSet.empty hs
end

(* Persistence: resident blocks in canonical topological order, then the
   archived (hash, height) pairs. Decoding re-inserts through [add], so a
   corrupt or non-parent-closed image is rejected rather than trusted. *)

let encode b t =
  Wire.put_list b Block.encode (topo_order t);
  Wire.put_list b
    (fun b h ->
      Wire.put_str b (Hash_id.to_raw h);
      Wire.put_u32 b (Option.value (HMap.find_opt h t.heights) ~default:0))
    (HSet.elements t.archived)

let decode c =
  let blocks = Wire.get_list c Block.decode in
  let archived =
    Wire.get_list c (fun c ->
        let h = Hash_id.of_raw_exn (Wire.get_str c) in
        let height = Wire.get_u32 c in
        (h, height))
  in
  (* Archived hashes first, so resident blocks atop pruned history load. *)
  let t =
    List.fold_left
      (fun t (h, height) ->
        if HSet.mem h t.archived then raise (Wire.Malformed "Dag.decode: archived hash twice");
        {
          t with
          archived = HSet.add h t.archived;
          heights = HMap.add h height t.heights;
          buckets = bucket_add height h t.buckets;
          max_height_ = Int.max t.max_height_ height;
          span_digest = None;
        })
      empty archived
  in
  List.fold_left
    (fun t b ->
      match add t b with
      | Ok t -> t
      | Error _ -> raise (Wire.Malformed "Dag.decode: blocks not parent-closed"))
    t blocks

(* Sized to the image, so a save copies each block's bytes once. *)
let to_string t =
  let b = Buffer.create (8 + t.bytes + (40 * HSet.cardinal t.archived)) in
  encode b t;
  Buffer.contents b

let of_string s = Wire.decode_string decode s

let pp_dot ppf t =
  Format.fprintf ppf "digraph vegvisir {@\n  rankdir=BT;@\n  node [shape=box, fontsize=10];@\n";
  List.iter
    (fun (b : Block.t) ->
      let h = b.Block.hash in
      let frontier_attr = if HSet.mem h t.frontier then ", penwidth=2, color=blue" else "" in
      Format.fprintf ppf "  \"%s\" [label=\"%s\\nby %s, %d tx\"%s];@\n"
        (Hash_id.short h) (Hash_id.short h)
        (Hash_id.short b.Block.creator)
        (List.length b.Block.transactions)
        frontier_attr;
      List.iter
        (fun p ->
          Format.fprintf ppf "  \"%s\" -> \"%s\"%s;@\n" (Hash_id.short h)
            (Hash_id.short p)
            (if HSet.mem p t.archived then " [style=dashed]" else ""))
        b.Block.parents)
    (topo_order t);
  HSet.iter
    (fun h ->
      Format.fprintf ppf "  \"%s\" [label=\"%s\\n(archived)\", style=dashed];@\n"
        (Hash_id.short h) (Hash_id.short h))
    t.archived;
  Format.fprintf ppf "}@\n"
