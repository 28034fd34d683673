module IMap = Map.Make (Int)
module HMap = Hash_id.Map

type t = {
  capacity : int option;
  by_hash : int HMap.t; (* hash -> insertion seq *)
  by_seq : Block.t IMap.t; (* insertion seq -> block, oldest first *)
  next : int;
  count : int; (* = cardinal by_seq, but O(1) *)
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Pending_pool.create: capacity < 1"
  | Some _ | None -> ());
  { capacity; by_hash = HMap.empty; by_seq = IMap.empty; next = 0; count = 0 }

let cardinal t = t.count
let is_empty t = t.count = 0
let mem t h = HMap.mem h t.by_hash

let remove_at t seq h =
  {
    t with
    by_hash = HMap.remove h t.by_hash;
    by_seq = IMap.remove seq t.by_seq;
    count = t.count - 1;
  }

let evict_oldest t =
  match IMap.min_binding_opt t.by_seq with
  | Some (seq, b) -> remove_at t seq b.Block.hash
  | None -> t

let add t (b : Block.t) =
  if HMap.mem b.Block.hash t.by_hash then t
  else begin
    let t =
      match t.capacity with
      | Some cap when t.count >= cap -> evict_oldest t
      | Some _ | None -> t
    in
    {
      t with
      by_hash = HMap.add b.Block.hash t.next t.by_hash;
      by_seq = IMap.add t.next b t.by_seq;
      next = t.next + 1;
      count = t.count + 1;
    }
  end

let remove t h =
  match HMap.find_opt h t.by_hash with
  | None -> t
  | Some seq -> remove_at t seq h

let to_seq t = Seq.map snd (IMap.to_seq t.by_seq)
let blocks t = List.map snd (IMap.bindings t.by_seq)
let fold f t acc = IMap.fold (fun _ b acc -> f b acc) t.by_seq acc

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
