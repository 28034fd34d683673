type t = {
  mutable dag_ : Dag.t;
  mutable chain_ : Support.t;
  mutable buffer : Pending_pool.t; (* unbounded: superpeers are storage-rich *)
}

let create () =
  { dag_ = Dag.empty; chain_ = Support.empty; buffer = Pending_pool.create () }

let try_add t b =
  match Dag.add t.dag_ b with
  | Ok dag ->
    t.dag_ <- dag;
    true
  | Error _ -> false

let drain t =
  let buffer, _made =
    Pending_pool.drain t.buffer (fun (b : Block.t) ->
        if try_add t b then Pending_pool.Resident
        else if Dag.mem t.dag_ b.Block.hash then Pending_pool.Dropped
        else Pending_pool.Waiting)
  in
  t.buffer <- buffer

let absorb t b =
  if not (Dag.mem t.dag_ b.Block.hash) then
    if not (try_add t b) then t.buffer <- Pending_pool.add t.buffer b
    else drain t

let absorb_all t blocks = List.iter (absorb t) blocks

let flush t =
  let archived = ref 0 in
  Seq.iter
    (fun (b : Block.t) ->
      if not (Support.contains t.chain_ b.Block.hash) then begin
        match Support.append t.chain_ b with
        | Ok chain ->
          t.chain_ <- chain;
          incr archived
        | Error _ -> ()
      end)
    (Dag.topo_seq t.dag_);
  !archived

let chain t = t.chain_

let fetch t h =
  match Dag.find t.dag_ h with
  | Some b -> Some b
  | None -> Support.find t.chain_ h

let serve_below t hashes =
  let closure = Dag.below t.dag_ hashes in
  Dag.topo_seq t.dag_
  |> Seq.filter (fun (b : Block.t) -> Hash_id.Set.mem b.Block.hash closure)
  |> List.of_seq

let dag t = t.dag_
let buffered_count t = Pending_pool.cardinal t.buffer
