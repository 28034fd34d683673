open Vegvisir

(* Causal block traces: every [Event.Block] observation is appended to a
   per-block span keyed by the block hash. Spans are kept in an ordered
   map and each span in arrival order, so queries and renderings are
   deterministic for a deterministic event stream. *)

type entry = {
  t : float;
  node : Event.node;
  phase : Event.block_phase;
  peer : Event.node option;
}

type t = { mutable spans : entry list Hash_id.Map.t (* newest first *) }

let create () = { spans = Hash_id.Map.empty }

let record t ~ts ev =
  match (ev : Event.t) with
  | Event.Block { node; phase; block; peer } ->
    let e = { t = ts; node; phase; peer } in
    t.spans <-
      Hash_id.Map.update block
        (function None -> Some [ e ] | Some es -> Some (e :: es))
        t.spans
  | Event.Block_dropped _ | Event.Block_redundant _ | Event.Net_sent _
  | Event.Blocks_advertised _
  | Event.Net_delivered _ | Event.Net_dropped _ | Event.Partition_changed _
  | Event.Session_started _ | Event.Session_completed _
  | Event.Session_aborted _ | Event.Request_resent _ | Event.Leader_elected _
  | Event.Block_archived _ | Event.Store_loaded _ | Event.Store_saved _
  | Event.Sync_started _ | Event.Sync_completed _ | Event.Recovery_completed _
  | Event.Span _ ->
    ()

let sink t = Sink.make (fun ~ts ev -> record t ~ts ev)
let blocks t = List.map fst (Hash_id.Map.bindings t.spans)
let span t id =
  match Hash_id.Map.find_opt id t.spans with
  | None -> []
  | Some es -> List.rev es

let find t prefix =
  List.filter
    (fun id ->
      let hex = Hash_id.to_hex id in
      String.length hex >= String.length prefix
      && String.equal (String.sub hex 0 (String.length prefix)) prefix)
    (blocks t)

let created_at entries =
  List.find_map
    (fun e ->
      match e.phase with
      | Event.Created -> Some e.t
      | Event.Sent | Event.Received | Event.Validated | Event.Delivered
      | Event.Witnessed ->
        None)
    entries

(* Time from creation to the last delivery seen so far. *)
let propagation_latency t id =
  let entries = span t id in
  match created_at entries with
  | None -> None
  | Some t0 ->
    List.fold_left
      (fun acc e ->
        match e.phase with
        | Event.Delivered ->
          let d = e.t -. t0 in
          Some (match acc with None -> d | Some m -> if d > m then d else m)
        | Event.Created | Event.Sent | Event.Received | Event.Validated
        | Event.Witnessed ->
          acc)
      None entries

(* Time from creation until [quorum] distinct peers have witnessed the
   block (each Witnessed entry carries the witnessing creator in
   [peer]). *)
let witness_latency ?(quorum = 1) t id =
  if quorum <= 0 then invalid_arg "Trace.witness_latency: quorum must be positive";
  let entries = span t id in
  match created_at entries with
  | None -> None
  | Some t0 ->
    let rec walk seen = function
      | [] -> None
      | e :: rest -> begin
        match e.phase with
        | Event.Witnessed ->
          let who = match e.peer with Some p -> p | None -> e.node in
          let seen = if List.mem who seen then seen else who :: seen in
          if List.length seen >= quorum then Some (e.t -. t0) else walk seen rest
        | Event.Created | Event.Sent | Event.Received | Event.Validated
        | Event.Delivered ->
          walk seen rest
      end
    in
    walk [] entries

(* How many distinct peers a block was received from, across all nodes. *)
let fan_in t id =
  List.fold_left
    (fun acc e ->
      match (e.phase, e.peer) with
      | Event.Received, Some p -> if List.mem p acc then acc else p :: acc
      | Event.Received, None -> acc
      | ( ( Event.Created | Event.Sent | Event.Validated | Event.Delivered
          | Event.Witnessed ),
          _ ) ->
        acc)
    [] (span t id)
  |> List.length

let render t id =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "block %s\n" (Hash_id.to_hex id));
  let entries = span t id in
  if entries = [] then Buffer.add_string b "  (no trace entries)\n"
  else
    List.iter
      (fun e ->
        let peer =
          match (e.phase, e.peer) with
          | Event.Received, Some p -> Printf.sprintf " from %s" p
          | Event.Sent, Some p -> Printf.sprintf " to %s" p
          | Event.Witnessed, Some p -> Printf.sprintf " by %s" p
          | ( ( Event.Created | Event.Validated | Event.Delivered
              | Event.Received | Event.Sent | Event.Witnessed ),
              _ ) ->
            ""
        in
        Buffer.add_string b
          (Printf.sprintf "  %10s  %-9s node=%s%s\n" (Event.json_float e.t)
             (Event.phase_to_string e.phase)
             e.node peer))
      entries;
  (match propagation_latency t id with
  | Some d ->
    Buffer.add_string b
      (Printf.sprintf "  propagation latency: %s\n" (Event.json_float d))
  | None -> ());
  (match witness_latency t id with
  | Some d ->
    Buffer.add_string b
      (Printf.sprintf "  first-witness latency: %s\n" (Event.json_float d))
  | None -> ());
  Buffer.contents b
