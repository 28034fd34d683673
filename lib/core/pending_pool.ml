module IMap = Map.Make (Int)
module HMap = Hash_id.Map

(* Two seq-keyed maps instead of one: [cold] holds blocks no peer ever
   advertised, [hot] holds blocks some peer claims to hold. Capacity
   eviction drains the oldest cold entry first — an advertised block's
   missing ancestry can likely be pulled from the advertising peer, so
   it is worth keeping over an orphan nobody vouches for. With no
   advertisements recorded, everything is cold and behavior is exactly
   the old oldest-first eviction. *)
type t = {
  capacity : int option;
  by_hash : int HMap.t; (* hash -> insertion seq *)
  cold : Block.t IMap.t; (* insertion seq -> block; never advertised *)
  hot : Block.t IMap.t; (* insertion seq -> block; peer-advertised *)
  next : int;
  count : int; (* = cardinal cold + cardinal hot, but O(1) *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Pending_pool.create: capacity < 1"
  | Some _ | None -> ());
  {
    capacity;
    by_hash = HMap.empty;
    cold = IMap.empty;
    hot = IMap.empty;
    next = 0;
    count = 0;
  }

let cardinal t = t.count
let is_empty t = t.count = 0
let mem t h = HMap.mem h t.by_hash

let evict_oldest t =
  match IMap.min_binding_opt t.cold with
  | Some (seq, b) ->
    {
      t with
      by_hash = HMap.remove b.Block.hash t.by_hash;
      cold = IMap.remove seq t.cold;
      count = t.count - 1;
    }
  | None -> begin
    match IMap.min_binding_opt t.hot with
    | None -> t
    | Some (seq, b) ->
      {
        t with
        by_hash = HMap.remove b.Block.hash t.by_hash;
        hot = IMap.remove seq t.hot;
        count = t.count - 1;
      }
  end

let add t (b : Block.t) =
  if HMap.mem b.Block.hash t.by_hash then t
  else begin
    (* Evict before inserting so the newcomer (always the newest entry)
       can never be its own victim when every resident block is hot. *)
    let t =
      match t.capacity with
      | Some cap when t.count >= cap -> evict_oldest t
      | Some _ | None -> t
    in
    {
      t with
      by_hash = HMap.add b.Block.hash t.next t.by_hash;
      cold = IMap.add t.next b t.cold;
      next = t.next + 1;
      count = t.count + 1;
    }
  end

let remove t h =
  match HMap.find_opt h t.by_hash with
  | None -> t
  | Some seq ->
    {
      t with
      by_hash = HMap.remove h t.by_hash;
      cold = IMap.remove seq t.cold;
      hot = IMap.remove seq t.hot;
      count = t.count - 1;
    }

let advertise t h =
  match HMap.find_opt h t.by_hash with
  | None -> t
  | Some seq -> begin
    match IMap.find_opt seq t.cold with
    | None -> t
    | Some b ->
      { t with cold = IMap.remove seq t.cold; hot = IMap.add seq b t.hot }
  end

let advertised t h =
  match HMap.find_opt h t.by_hash with
  | None -> false
  | Some seq -> IMap.mem seq t.hot

(* Merge the two seq-ordered streams back into insertion order. *)
let rec merge_seqs a b () =
  match a () with
  | Seq.Nil -> b ()
  | Seq.Cons ((sa, ba), ta) -> begin
    match b () with
    | Seq.Nil -> Seq.Cons ((sa, ba), ta)
    | Seq.Cons ((sb, bb), tb) ->
      if sa < sb then Seq.Cons ((sa, ba), merge_seqs ta b)
      else Seq.Cons ((sb, bb), merge_seqs a tb)
  end

let to_seq t = Seq.map snd (merge_seqs (IMap.to_seq t.cold) (IMap.to_seq t.hot))
let blocks t = List.of_seq (to_seq t)
let fold f t acc = Seq.fold_left (fun acc b -> f b acc) acc (to_seq t)

type retried = Resident | Dropped | Waiting

let drain t retry =
  let rec pass t made =
    let t, made, progress =
      List.fold_left
        (fun (t, made, progress) (b : Block.t) ->
          match retry b with
          | Waiting -> (t, made, progress)
          | Dropped -> (remove t b.Block.hash, made, progress)
          | Resident -> (remove t b.Block.hash, b :: made, true))
        (t, made, false) (blocks t)
    in
    if progress then pass t made else (t, List.rev made)
  in
  pass t []
