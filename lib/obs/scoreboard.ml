(* The per-peer gossip scoreboard — vegvisir-health's live companion.

   Where Monitor folds the stream into fleet-wide signals (convergence,
   partition divergence), the scoreboard keys the same stream by the
   *far peer* of one node ("me") and maintains, per peer: a frontier
   divergence estimate, useful-vs-redundant delivered blocks, exchange
   counts and failures, exchange latencies (from the engine's per-session
   duration attribution), and the last-contact timestamp. The daemon's
   anti-entropy scheduler consults {!priority} to dial the most-diverged
   / longest-unseen peer first.

   The divergence estimate is purely stream-derived: [held] is the set
   of blocks "me" has been seen to create or deliver since the fold
   began; a completed exchange with peer p records the current
   cardinality as p's high-water mark ([acked]); divergence(p) is how
   many blocks arrived since — 0 right after a clean exchange, growing
   as other peers (or local appends) bring in blocks p has not been
   shown to have. A peer that never completed an exchange is maximally
   diverged (everything held is unacked).

   Like Monitor this is a pure fold over [(ts, event)] pairs: no clock,
   no randomness, no I/O, no unordered iteration — deterministic streams
   yield deterministic state and byte-stable renderings. *)

open Vegvisir
module SMap = Map.Make (String)
module HSet = Hash_id.Set

(* Decade-ish bounds (ms) for loopback-to-WAN exchange latencies. *)
let latency_buckets = [ 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. ]

(* Retained exchange latencies per peer. A long-lived daemon completes
   an unbounded number of exchanges; keeping every duration would leak,
   so the window holds the most recent [max_latencies], trimmed lazily
   at twice that so the push stays amortised O(1). *)
let max_latencies = 512

type entry = {
  mutable useful : int;  (* blocks delivered by this peer we kept *)
  mutable redundant : int;  (* blocks it shipped that we already held *)
  mutable exchanges : int;  (* clean Sync_completed exchanges *)
  mutable failures : int;  (* engine sessions aborted (stalled/timeout) *)
  mutable advertised : int;  (* hashes it advertised without shipping blocks *)
  mutable acked : int;  (* |held| at this peer's last clean exchange *)
  mutable last_contact : float option;  (* ts of the latest event naming it *)
  mutable lats_rev : float list;  (* recent exchange latencies, newest first *)
  mutable lats_len : int;  (* length of lats_rev *)
}

type row = {
  peer : string;
  divergence : int;
  useful : int;
  redundant : int;
  exchanges : int;
  failures : int;
  advertised : int;
  last_contact : float option;
  latencies : float list;  (* ms, oldest first *)
}

type t = {
  me : string;
  mutable held : HSet.t;
  mutable peers : entry SMap.t;
}

let create ~me () = { me; held = HSet.empty; peers = SMap.empty }

let entry t peer =
  match SMap.find_opt peer t.peers with
  | Some e -> e
  | None ->
    let e =
      {
        useful = 0;
        redundant = 0;
        exchanges = 0;
        failures = 0;
        advertised = 0;
        acked = 0;
        last_contact = None;
        lats_rev = [];
        lats_len = 0;
      }
    in
    t.peers <- SMap.add peer e t.peers;
    e

let touch t ~ts peer = (entry t peer).last_contact <- Some ts

let mine t node = String.equal node t.me

let observe t ~ts ev =
  match (ev : Event.t) with
  | Event.Block { node; phase; block; peer } when mine t node -> begin
    (match phase with
    | Event.Created | Event.Delivered -> t.held <- HSet.add block t.held
    | Event.Sent | Event.Received | Event.Validated | Event.Witnessed -> ());
    match (phase, peer) with
    | Event.Delivered, Some p ->
      let e = entry t p in
      e.useful <- e.useful + 1;
      e.last_contact <- Some ts
    | ( ( Event.Created | Event.Sent | Event.Received | Event.Validated
        | Event.Delivered | Event.Witnessed ),
        (Some _ | None) ) ->
      ()
  end
  | Event.Block_redundant { node; peer = Some p; block = _ } when mine t node ->
    let e = entry t p in
    e.redundant <- e.redundant + 1;
    e.last_contact <- Some ts
  | Event.Blocks_advertised { node; peer; hashes } when mine t node ->
    let e = entry t peer in
    e.advertised <- e.advertised + hashes;
    e.last_contact <- Some ts
  | Event.Session_started { node; peer; generation = _ } when mine t node ->
    touch t ~ts peer
  | Event.Session_completed { node; peer; duration_ms; generation = _; blocks = _ }
    when mine t node ->
    let e = entry t peer in
    e.lats_rev <- duration_ms :: e.lats_rev;
    e.lats_len <- e.lats_len + 1;
    if e.lats_len > 2 * max_latencies then begin
      e.lats_rev <- List.filteri (fun i _ -> i < max_latencies) e.lats_rev;
      e.lats_len <- max_latencies
    end;
    e.last_contact <- Some ts
  | Event.Session_aborted { node; peer; generation = _; reason = _ }
    when mine t node ->
    let e = entry t peer in
    e.failures <- e.failures + 1;
    e.last_contact <- Some ts
  | Event.Request_resent { node; peer; generation = _; attempt = _ }
    when mine t node ->
    touch t ~ts peer
  | Event.Sync_started { node; peer } when mine t node -> touch t ~ts peer
  | Event.Sync_completed { node; peer; pulled = _; served = _ } when mine t node
    ->
    let e = entry t peer in
    e.exchanges <- e.exchanges + 1;
    e.acked <- HSet.cardinal t.held;
    e.last_contact <- Some ts
  | Event.Block _ | Event.Block_redundant _
  | Event.Blocks_advertised _
  | Event.Net_sent _ | Event.Net_delivered _ | Event.Net_dropped _
  | Event.Partition_changed _ | Event.Session_started _
  | Event.Session_completed _ | Event.Session_aborted _
  | Event.Request_resent _ | Event.Leader_elected _ | Event.Block_archived _
  | Event.Store_loaded _ | Event.Store_saved _ | Event.Sync_started _
  | Event.Sync_completed _ | Event.Recovery_completed _ | Event.Span _ ->
    ()

let sink t = Sink.make (fun ~ts ev -> observe t ~ts ev)

(* ------------------------------------------------------------------ *)
(* Readers                                                              *)

let me t = t.me
let local_blocks t = HSet.cardinal t.held

let row_of t peer (e : entry) =
  {
    peer;
    divergence = HSet.cardinal t.held - e.acked;
    useful = e.useful;
    redundant = e.redundant;
    exchanges = e.exchanges;
    failures = e.failures;
    advertised = e.advertised;
    last_contact = e.last_contact;
    latencies =
      List.rev (List.filteri (fun i _ -> i < max_latencies) e.lats_rev);
  }

let row t peer = Option.map (row_of t peer) (SMap.find_opt peer t.peers)

let rows t =
  SMap.fold (fun peer e acc -> row_of t peer e :: acc) t.peers [] |> List.rev

(* A candidate with no scoreboard row has never been heard from: it is
   maximally diverged and infinitely unseen, so it sorts first. *)
let candidate_key t label =
  match SMap.find_opt label t.peers with
  | None -> (HSet.cardinal t.held, None)
  | Some e -> (HSet.cardinal t.held - e.acked, e.last_contact)

let contact_compare a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> Float.compare x y

let priority t labels =
  let keyed = List.map (fun l -> (l, candidate_key t l)) labels in
  let cmp (la, (da, ca)) (lb, (db, cb)) =
    match Int.compare db da (* divergence: descending *) with
    | 0 -> begin
      match contact_compare ca cb (* oldest contact first *) with
      | 0 -> String.compare la lb
      | c -> c
    end
    | c -> c
  in
  List.map fst (List.stable_sort cmp keyed)

(* ------------------------------------------------------------------ *)
(* Renderings (byte-stable, like Health.report)                         *)

let fms = Event.json_float
let opt_fms = function None -> "-" | Some v -> fms v

let mean = function
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0. l /. float_of_int (List.length l))

let maximum = function
  | [] -> None
  | l -> Some (List.fold_left Float.max neg_infinity l)

let report t =
  let b = Buffer.create 256 in
  let line parts =
    Buffer.add_string b (String.concat " " parts);
    Buffer.add_char b '\n'
  in
  line [ "me"; t.me ];
  line [ "local_blocks"; string_of_int (HSet.cardinal t.held) ];
  line [ "peers"; string_of_int (SMap.cardinal t.peers) ];
  List.iter
    (fun r ->
      line
        [
          "peer";
          r.peer;
          "divergence=" ^ string_of_int r.divergence;
          "useful=" ^ string_of_int r.useful;
          "redundant=" ^ string_of_int r.redundant;
          "exchanges=" ^ string_of_int r.exchanges;
          "failures=" ^ string_of_int r.failures;
          "advertised=" ^ string_of_int r.advertised;
          "last_contact=" ^ opt_fms r.last_contact;
          "lat_count=" ^ string_of_int (List.length r.latencies);
          "lat_mean=" ^ opt_fms (mean r.latencies);
          "lat_max=" ^ opt_fms (maximum r.latencies);
        ])
    (rows t);
  Buffer.contents b

let opt_json = function None -> "null" | Some v -> fms v

(* A JSON array of row objects; the ["peer"/"divergence"] prefix of each
   row is deliberately first so tests (and humans) can grep it. *)
let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"peer\":";
      Buffer.add_string b (Event.json_string r.peer);
      Buffer.add_string b ",\"divergence\":";
      Buffer.add_string b (string_of_int r.divergence);
      Buffer.add_string b ",\"useful\":";
      Buffer.add_string b (string_of_int r.useful);
      Buffer.add_string b ",\"redundant\":";
      Buffer.add_string b (string_of_int r.redundant);
      Buffer.add_string b ",\"exchanges\":";
      Buffer.add_string b (string_of_int r.exchanges);
      Buffer.add_string b ",\"failures\":";
      Buffer.add_string b (string_of_int r.failures);
      Buffer.add_string b ",\"advertised\":";
      Buffer.add_string b (string_of_int r.advertised);
      Buffer.add_string b ",\"last_contact_ms\":";
      Buffer.add_string b (opt_json r.last_contact);
      Buffer.add_string b ",\"latency_ms\":{\"count\":";
      Buffer.add_string b (string_of_int (List.length r.latencies));
      Buffer.add_string b ",\"mean\":";
      Buffer.add_string b (opt_json (mean r.latencies));
      Buffer.add_string b ",\"max\":";
      Buffer.add_string b (opt_json (maximum r.latencies));
      Buffer.add_string b "}}")
    (rows t);
  Buffer.add_char b ']';
  Buffer.contents b

let export t reg =
  List.iter
    (fun r ->
      let set name v =
        Registry.set (Registry.gauge reg ~node:r.peer name) v
      in
      set "peer.divergence" (float_of_int r.divergence);
      set "peer.useful_blocks" (float_of_int r.useful);
      set "peer.redundant_blocks" (float_of_int r.redundant);
      set "peer.exchanges" (float_of_int r.exchanges);
      set "peer.failures" (float_of_int r.failures);
      set "peer.advertised_hashes" (float_of_int r.advertised);
      (match r.last_contact with
      | Some ts -> set "peer.last_contact_ms" ts
      | None -> ());
      let hist =
        Registry.histogram reg ~node:r.peer ~buckets:latency_buckets
          "peer.exchange_ms"
      in
      List.iter (Registry.observe hist) r.latencies)
    (rows t)
