(* Streaming derived health metrics.

   The monitor is a bus sink that folds the raw event stream into the
   partition-tolerance signals the experiments report on: which blocks
   each replica holds (and therefore whether the fleet has reconverged),
   how long convergence took after a marked instant (a partition heal,
   the last append of a workload), how much of the gossip traffic was
   redundant, and how quickly blocks reach a witness quorum.

   Everything here is a pure fold over (ts, event) pairs — no clock, no
   randomness, no I/O — so a deterministic event stream produces a
   deterministic monitor state, and two same-seed runs render
   byte-identical reports.

   Replica state is tracked as the *set of blocks each node holds*
   (grown on Created/Delivered events, the two insertion points of the
   DAG). Vegvisir block sets are parent-closed, so two replicas have
   equal frontiers exactly when their block sets are equal; the
   symmetric difference of the held sets is therefore zero iff the
   frontiers agree, and its cardinality counts the blocks not yet
   uniformly replicated — the event-derivable reading of "frontier
   divergence". *)

open Vegvisir
module SMap = Map.Make (String)
module IMap = Map.Make (Int)
module HSet = Hash_id.Set

type sample = { ts : float; groups : (int * int) list }

type witness_track = {
  created : float option;
  witnesses : string list; (* distinct witnessing creators *)
  quorum_at : float option;
}

type t = {
  nodes : string list; (* the tracked fleet, in caller order *)
  node_count : int;
  every : float option;
  quorum : int;
  mutable holdings : HSet.t SMap.t; (* node -> blocks held *)
  holders : (Hash_id.t, int) Hashtbl.t; (* block -> #nodes holding it *)
  mutable lagging : int; (* blocks with 0 < holders < node_count *)
  mutable partition : int list option; (* current group map, None = whole *)
  mutable partition_changes : int;
  mutable marks : float list; (* pending, oldest first *)
  mutable lags : float list; (* resolved, oldest first *)
  mutable useful : int;
  mutable redundant : int;
  witness : (Hash_id.t, witness_track) Hashtbl.t;
  mutable quorum_lats : float list; (* oldest first *)
  mutable samples : sample list; (* newest first *)
  mutable last_ts : float;
  mutable converged_at : float option; (* ts of the last lagging>0 -> 0 edge *)
}

let create ?every ?quorum ~nodes () =
  (match every with
  | Some e when e <= 0. -> invalid_arg "Monitor.create: every must be > 0"
  | Some _ | None -> ());
  let node_count = List.length nodes in
  let quorum =
    match quorum with
    | Some q when q <= 0 -> invalid_arg "Monitor.create: quorum must be > 0"
    | Some q -> q
    | None -> (node_count / 2) + 1
  in
  {
    nodes;
    node_count;
    every;
    quorum;
    holdings =
      List.fold_left (fun m n -> SMap.add n HSet.empty m) SMap.empty nodes;
    holders = Hashtbl.create 64;
    lagging = 0;
    partition = None;
    partition_changes = 0;
    marks = [];
    lags = [];
    useful = 0;
    redundant = 0;
    witness = Hashtbl.create 64;
    quorum_lats = [];
    samples = [];
    last_ts = 0.;
    converged_at = None;
  }

(* --------------------------------------------------------------- *)
(* Convergence: holdings, lag marks                                  *)

let resolve t ~ts =
  t.converged_at <- Some ts;
  if t.marks <> [] then begin
    t.lags <- t.lags @ List.map (fun m -> Float.max 0. (ts -. m)) t.marks;
    t.marks <- []
  end

let mark t ~ts =
  if t.lagging = 0 then t.lags <- t.lags @ [ 0. ]
  else t.marks <- t.marks @ [ ts ]

let hold t ~ts ~node block =
  match SMap.find_opt node t.holdings with
  | None -> () (* not part of the tracked fleet *)
  | Some set ->
    if not (HSet.mem block set) then begin
      t.holdings <- SMap.add node (HSet.add block set) t.holdings;
      let before =
        match Hashtbl.find_opt t.holders block with Some n -> n | None -> 0
      in
      let after = before + 1 in
      Hashtbl.replace t.holders block after;
      if before = 0 && after < t.node_count then t.lagging <- t.lagging + 1
      else if before > 0 && after = t.node_count then begin
        t.lagging <- t.lagging - 1;
        if t.lagging = 0 then resolve t ~ts
      end
    end

(* --------------------------------------------------------------- *)
(* Witness quorum latency                                            *)

let note_created t ~ts ~block =
  match Hashtbl.find_opt t.witness block with
  | Some { created = Some _; _ } -> ()
  | Some tr -> Hashtbl.replace t.witness block { tr with created = Some ts }
  | None ->
    Hashtbl.add t.witness block
      { created = Some ts; witnesses = []; quorum_at = None }

let note_witness t ~ts ~block ~creator =
  let tr =
    match Hashtbl.find_opt t.witness block with
    | Some tr -> tr
    | None -> { created = None; witnesses = []; quorum_at = None }
  in
  match tr.quorum_at with
  | Some _ -> ()
  | None ->
    if not (List.exists (String.equal creator) tr.witnesses) then begin
      let witnesses = creator :: tr.witnesses in
      let tr =
        if List.length witnesses >= t.quorum then begin
          (match tr.created with
          | Some c -> t.quorum_lats <- t.quorum_lats @ [ Float.max 0. (ts -. c) ]
          | None -> ());
          { tr with witnesses; quorum_at = Some ts }
        end
        else { tr with witnesses }
      in
      Hashtbl.replace t.witness block tr
    end

(* --------------------------------------------------------------- *)
(* Per-group divergence sampling                                     *)

let group_of t node =
  match t.partition with
  | None -> 0
  | Some gs -> begin
    (* simulator nodes are named by their decimal index; anything else
       (a real CLI node) defaults to group 0 *)
    match int_of_string_opt node with
    | None -> 0
    | Some i -> ( match List.nth_opt gs i with Some g -> g | None -> 0)
  end

let divergence t =
  let groups =
    List.fold_left
      (fun acc node ->
        let h =
          match SMap.find_opt node t.holdings with
          | Some s -> s
          | None -> HSet.empty
        in
        IMap.update (group_of t node)
          (function
            | None -> Some (h, h)
            | Some (u, i) -> Some (HSet.union u h, HSet.inter i h))
          acc)
      IMap.empty t.nodes
  in
  List.map
    (fun (g, (u, i)) -> (g, HSet.cardinal u - HSet.cardinal i))
    (IMap.bindings groups)

(* One sample per event gap, labelled with the last tick boundary the
   stream crossed: state is constant between events, so the holdings at
   that boundary are exactly the holdings after the previous event.
   Bounded by the event count regardless of how small [every] is. *)
let maybe_sample t ~ts =
  match t.every with
  | None -> ()
  | Some every ->
    if ts > t.last_ts then begin
      let k_prev = Float.floor (t.last_ts /. every) in
      let k_now = Float.floor (ts /. every) in
      if k_now > k_prev then
        t.samples <- { ts = k_now *. every; groups = divergence t } :: t.samples
    end

(* --------------------------------------------------------------- *)
(* The fold                                                          *)

let observe t ~ts ev =
  maybe_sample t ~ts;
  (match (ev : Event.t) with
  | Event.Block { node; phase; block; peer } -> begin
    match phase with
    | Event.Created ->
      note_created t ~ts ~block;
      hold t ~ts ~node block
    | Event.Delivered ->
      t.useful <- t.useful + 1;
      hold t ~ts ~node block
    | Event.Witnessed -> begin
      match peer with
      | Some creator -> note_witness t ~ts ~block ~creator
      | None -> ()
    end
    | Event.Sent | Event.Received | Event.Validated -> ()
  end
  | Event.Block_redundant _ -> t.redundant <- t.redundant + 1
  | Event.Partition_changed { groups } -> begin
    t.partition_changes <- t.partition_changes + 1;
    t.partition <- groups;
    match groups with None -> mark t ~ts (* heal *) | Some _ -> ()
  end
  | Event.Blocks_advertised _
  | Event.Net_sent _ | Event.Net_delivered _
  | Event.Net_dropped _ | Event.Session_started _ | Event.Session_completed _
  | Event.Session_aborted _ | Event.Request_resent _ | Event.Leader_elected _
  | Event.Block_archived _ | Event.Store_loaded _ | Event.Store_saved _
  | Event.Sync_started _ | Event.Sync_completed _ | Event.Recovery_completed _
  | Event.Span _ ->
    ());
  if ts > t.last_ts then t.last_ts <- ts

let sink t = Sink.make (fun ~ts ev -> observe t ~ts ev)

(* --------------------------------------------------------------- *)
(* Readers                                                           *)

let nodes t = t.nodes
let tick_every t = t.every
let quorum t = t.quorum
let converged t = t.lagging = 0
let lagging t = t.lagging
let converged_at t = t.converged_at
let partition t = t.partition
let partition_changes t = t.partition_changes
let lags t = t.lags
let pending_marks t = List.length t.marks
let gossip_useful t = t.useful
let gossip_redundant t = t.redundant
let quorum_latencies t = t.quorum_lats
let samples t = List.rev t.samples

let last_lag t =
  match List.rev t.lags with [] -> None | lag :: _ -> Some lag
