(* Engine trace -> obs events, and block intake -> block events,
   written once for every host. The simulator's gossip agent and the
   daemon's event loop call [of_event] from their Trace arms and keep
   only host-specific work (trace-context bookkeeping, session failure)
   at the call site; they, [Node_store]'s sync and recovery, and every
   local creation journal blocks through
   [received], [made_resident] and [created], so the two worlds journal
   the same events for the same session. Pure (engine-events
   boundary). *)

module Peer_engine = Vegvisir_engine.Peer_engine
module Block = Vegvisir.Block

let block ~node ?peer phase (b : Block.t) =
  Event.Block { node; phase; block = b.Block.hash; peer }

(* An empty block is a witness signature over its parents (§IV-E): it
   advances each parent's witness count, tagged with the witnessing
   creator for distinct-quorum queries. *)
let witnesses ~node (b : Block.t) =
  match b.Block.transactions with
  | _ :: _ -> []
  | [] ->
    let peer = Some (Vegvisir.Hash_id.short b.Block.creator) in
    List.map
      (fun parent ->
        Event.Block { node; phase = Event.Witnessed; block = parent; peer })
      b.Block.parents

let received ~node ?peer blocks =
  List.map (block ~node ?peer Event.Received) blocks

let made_resident ~node ?peer blocks =
  List.concat_map
    (fun b ->
      block ~node ?peer Event.Validated b
      :: block ~node ?peer Event.Delivered b
      :: witnesses ~node b)
    blocks

let created ~node b = block ~node Event.Created b :: witnesses ~node b

let abort_reason = function
  | Peer_engine.Stalled -> Event.Stalled
  | Peer_engine.Timed_out -> Event.Timed_out

(* Sampled sessions surface as spans: the initiator's announcement is
   the trace's root, the responder's serve span parents under the
   announced ids, and a completed session closes with a timed exchange
   span under the context it joined. *)
let span ~node ~trace ?parent ?(dur_ms = 0.) ~name span =
  Event.Span { node; trace; span; parent; name; dur_ms }

let derived ~node ~trace ~parent ?dur_ms name =
  span ~node ~trace ~parent ?dur_ms ~name (Span.derive ~trace ~node ~name)

let of_event ~node ~peer ?exchange (ev : Peer_engine.event) =
  match ev with
  | Peer_engine.Session_started { dst; generation } ->
    [ Event.Session_started { node; peer = peer dst; generation } ]
  | Peer_engine.Request_resent { dst; generation; attempt } ->
    [ Event.Request_resent { node; peer = peer dst; generation; attempt } ]
  | Peer_engine.Session_completed { dst; generation; blocks; duration_ms } -> (
    let completed =
      Event.Session_completed
        { node; peer = peer dst; generation; blocks; duration_ms }
    in
    match exchange with
    | None -> [ completed ]
    | Some (trace, root) ->
      [
        completed;
        derived ~node ~trace ~parent:root ~dur_ms:duration_ms
          "session.exchange";
      ])
  | Peer_engine.Session_aborted { dst; generation; reason } ->
    [
      Event.Session_aborted
        { node; peer = peer dst; generation; reason = abort_reason reason };
    ]
  | Peer_engine.Blocks_served { dst; blocks } ->
    let peer = Some (peer dst) in
    List.map
      (fun block -> Event.Block { node; phase = Event.Sent; block; peer })
      blocks
  | Peer_engine.Redundant_received { from; blocks } ->
    let peer = Some (peer from) in
    List.map (fun block -> Event.Block_redundant { node; block; peer }) blocks
  | Peer_engine.Peer_advertised { from; hashes } ->
    [
      Event.Blocks_advertised
        { node; peer = peer from; hashes = List.length hashes };
    ]
  | Peer_engine.Trace_context_sent { trace; span = root; _ } ->
    [ span ~node ~trace ~name:"session.announce" root ]
  | Peer_engine.Trace_context_received { trace; span = announced; _ } ->
    [ derived ~node ~trace ~parent:announced "session.serve" ]
  | Peer_engine.Request_suppressed _ | Peer_engine.Reply_ignored _
  | Peer_engine.Decode_failed _ ->
    []
