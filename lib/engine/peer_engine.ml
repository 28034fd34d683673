open Vegvisir

type policy = Honest | Silent | Withholding

module Config = struct
  type t = {
    policy : policy;
    mode : Reconcile.mode;
    stale_after_ms : float;
    session_timeout_ms : float;
    retry_limit : int;
    trace_sample : float;
        (* Head-sampling rate for cross-daemon span tracing: the
           fraction of initiated sessions that announce a
           [Reconcile.Trace_context] frame to the responder. 0. (the
           default) sends nothing — zero wire overhead; the decision is
           a deterministic hash of (initiator, generation), never a
           random draw (the engine is inside the no-random boundary). *)
  }

  let default =
    {
      policy = Honest;
      mode = Reconcile.Naive;
      stale_after_ms = 5_000.;
      session_timeout_ms = 30_000.;
      retry_limit = 3;
      trace_sample = 0.;
    }
end

type timer_key =
  | Gossip_round
  | Session_timeout of { generation : int }

let tag_of_timer = function
  | Gossip_round -> "gossip"
  | Session_timeout { generation } -> "timeout:" ^ string_of_int generation

let timer_of_tag tag =
  if String.equal tag "gossip" then Some Gossip_round
  else
    match String.index_opt tag ':' with
    | Some i when String.equal (String.sub tag 0 i) "timeout" -> begin
      match int_of_string_opt (String.sub tag (i + 1) (String.length tag - i - 1)) with
      | Some generation -> Some (Session_timeout { generation })
      | None -> None
    end
    | Some _ | None -> None

type input =
  | Message_received of { from : int; bytes : string }
  | Timer_fired of timer_key
  | Block_created of Block.t
  | Tick of { peer : int option }

type abort_reason = Stalled | Timed_out

type event =
  | Session_started of { dst : int; generation : int }
  | Request_resent of { dst : int; generation : int; attempt : int }
  | Session_completed of {
      dst : int;
      generation : int;
      blocks : int;
      duration_ms : float;
    }
  | Session_aborted of { dst : int; generation : int; reason : abort_reason }
  | Request_suppressed of { src : int }
  | Reply_ignored of { from : int }
  | Decode_failed of { from : int }
  | Blocks_served of { dst : int; blocks : Hash_id.t list }
  | Redundant_received of { from : int; blocks : Hash_id.t list }
  | Peer_advertised of { from : int; hashes : Hash_id.t list }
  | Trace_context_sent of {
      dst : int;
      generation : int;
      trace : string;
      span : string;
    }
  | Trace_context_received of { from : int; trace : string; span : string }

type effect_ =
  | Send of { dst : int; bytes : string }
  | Set_timer of { key : timer_key; after_ms : float }
  | Deliver of Block.t list
  | Session_done of Reconcile.stats
  | Trace of event

type session_state = {
  dst : int;
  generation : int;
  recon : Reconcile.session;
  last_activity : float;
  started_at : float;
}

type t = {
  user_id : Hash_id.t;
  config : Config.t;
  session : session_state option;
  retries : int;
      (* The retransmit budget is deliberately {e peer}-level, not
         session-level: starting a new session does not refill it — only
         actually hearing a reply does. A peer whose pulls keep dying in a
         lossy or sleepy network therefore abandons subsequent stale
         sessions immediately and re-pairs with a fresh random neighbor
         instead of burning retransmissions into the void. *)
  generation_ : int;
  censored : Dag.t option;
      (* [Withholding] only: the censored serving view — own creations
         plus genesis — maintained incrementally so answering a request
         does not rebuild the DAG (the old per-request [topo_order] fold
         was O(n) per message, O(n²) per sync). *)
}

(* The censored view admits a block only when its (censored) ancestry is
   present, exactly as the old full rebuild did: an own block chained on
   others' blocks has missing parents in the censored view and is
   withheld along with them. *)
let censor_add user_id dag (b : Block.t) =
  if Block.is_genesis b || Hash_id.equal b.Block.creator user_id then
    match Dag.add dag b with Ok dag -> dag | Error _ -> dag
  else dag

let build_censored user_id full =
  Seq.fold_left (censor_add user_id) Dag.empty (Dag.topo_seq full)

let create ?(config = Config.default) ~user_id ~dag () =
  {
    user_id;
    config;
    session = None;
    retries = 0;
    generation_ = 0;
    censored =
      (match config.Config.policy with
      | Honest | Silent -> None
      | Withholding -> Some (build_censored user_id dag));
  }

let config t = t.config
let policy t = t.config.Config.policy
let generation t = t.generation_
let busy t = Option.is_some t.session

let next_wakeup t =
  match t.session with
  | None -> None
  | Some s -> Some (s.last_activity +. t.config.Config.stale_after_ms)

let serving_view t ~dag =
  match t.censored with Some censored -> censored | None -> dag

let absorb t (b : Block.t) =
  match t.censored with
  | None -> t
  | Some censored -> { t with censored = Some (censor_add t.user_id censored b) }

let encode m =
  let b = Buffer.create 256 in
  Reconcile.encode_message b m;
  Buffer.contents b

let stale t (s : session_state) ~now =
  now -. s.last_activity > t.config.Config.stale_after_ms

let will_initiate t ~now =
  match t.config.Config.policy with
  | Silent -> false
  | Honest | Withholding -> begin
    match t.session with
    | None -> true
    | Some s -> stale t s ~now && t.retries >= t.config.Config.retry_limit
  end

(* One gossip round: first housekeep the in-flight session (retransmit a
   quiet one a few times — the copy in flight, or its reply, may have
   been lost or be slow — and abandon it only after repeated silence),
   then, if idle, start pulling from the offered peer. An abandonment
   and the next initiation share the round, as in the original agent. *)
let tick t ~now ~dag ~peer =
  let t, housekeeping =
    match t.session with
    | Some s when stale t s ~now ->
      if t.retries < t.config.Config.retry_limit then
        let s = { s with last_activity = now } in
        let t = { t with session = Some s; retries = t.retries + 1 } in
        ( t,
          [
            Send { dst = s.dst; bytes = encode (Reconcile.current_request s.recon) };
            Trace
              (Request_resent
                 { dst = s.dst; generation = s.generation; attempt = t.retries });
          ] )
      else
        ( { t with session = None },
          [
            Trace
              (Session_aborted
                 { dst = s.dst; generation = s.generation; reason = Stalled });
          ] )
    | Some _ | None -> (t, [])
  in
  match (t.session, t.config.Config.policy, peer) with
  | None, (Honest | Withholding), Some dst ->
    let recon, first = Reconcile.start t.config.Config.mode dag in
    let generation = t.generation_ + 1 in
    let session =
      Some { dst; generation; recon; last_activity = now; started_at = now }
    in
    (* Sampled sessions announce their trace to the responder with a
       [Trace_context] frame ahead of the first request, so the serve
       side stitches its spans into the initiator's trace. The frame is
       fire-and-forget: peers predating tag 11 drop it at decode, and a
       lost frame only costs an unstitched serve span. *)
    let trace_ctx =
      if
        Reconcile.trace_sampled ~initiator:t.user_id ~generation
          ~rate:t.config.Config.trace_sample
      then
        let trace, span =
          Reconcile.session_trace_ids ~initiator:t.user_id ~generation
        in
        [
          Send { dst; bytes = encode (Reconcile.Trace_context { trace; span }) };
          Trace (Trace_context_sent { dst; generation; trace; span });
        ]
      else []
    in
    ( { t with session; generation_ = generation },
      housekeeping
      @ [
          Trace (Session_started { dst; generation });
          Set_timer
            {
              key = Session_timeout { generation };
              after_ms = t.config.Config.session_timeout_ms;
            };
        ]
      @ trace_ctx
      @ [ Send { dst; bytes = encode first } ] )
  | (Some _ | None), (Honest | Silent | Withholding), (Some _ | None) ->
    (t, housekeeping)

(* Block payloads a reply ships to the requesting peer — this is the
   only place the engine parts with block data, so the [Blocks_served]
   trace emitted alongside the reply is the ground truth for the "sent"
   phase of a block's causal timeline. *)
let served_blocks m =
  List.map (fun (b : Block.t) -> b.Block.hash) (Reconcile.reply_blocks m)

let on_reply t ~now ~dag ~from msg =
  match t.session with
  | Some s when Int.equal s.dst from ->
    let s = { s with last_activity = now } in
    let t = { t with retries = 0 } in
    (* Hashes the responder advertised in digest leaves: it provably
       holds them, which the host's pending pool uses for eviction. *)
    let advert_trace =
      match Reconcile.advertised_hashes msg with
      | [] -> []
      | hashes -> [ Trace (Peer_advertised { from; hashes }) ]
    in
    (* Blocks this reply carried that we already hold: the waste term of
       gossip efficiency, matching [Reconcile.stats.redundant_blocks]
       but with the hashes attached. Emitted only for accepted replies,
       like the stats. *)
    let redundant =
      match List.filter (Dag.mem dag) (served_blocks msg) with
      | [] -> []
      | blocks -> [ Trace (Redundant_received { from; blocks }) ]
    in
    let recon, step = Reconcile.handle_reply s.recon dag msg in
    let s = { s with recon } in
    begin
      match step with
      | Reconcile.Send next ->
        ( { t with session = Some s },
          advert_trace @ redundant @ [ Send { dst = from; bytes = encode next } ] )
      | Reconcile.Ignored ->
        (* Even a stale or foreign reply is evidence — the peer held
           whatever it advertised — so the advertisement trace still
           reaches the pending pool. *)
        ({ t with session = Some s }, advert_trace)
      | Reconcile.Finished { new_blocks; stats } ->
        let t = { t with session = None } in
        (* The pulled blocks may include the genesis (first sync of a
           fresh replica); keep the censored serving view caught up. *)
        let t = List.fold_left absorb t new_blocks in
        ( t,
          advert_trace @ redundant
          @ [
              Session_done stats;
              Deliver new_blocks;
              Trace
                (Session_completed
                   {
                     dst = from;
                     generation = s.generation;
                     blocks = List.length new_blocks;
                     duration_ms = Float.max 0. (now -. s.started_at);
                   });
            ] )
    end
  | Some _ | None -> (t, [ Trace (Reply_ignored { from }) ])

let on_message t ~now ~dag ~from bytes =
  match Wire.decode_string Reconcile.decode_message bytes with
  | None -> (t, [ Trace (Decode_failed { from }) ])
  (* A trace announcement is neither request nor reply: surface it to
     the host (which parents its serve spans under the carried ids) and
     leave every byte of protocol state untouched. *)
  | Some (Reconcile.Trace_context { trace; span }) ->
    (t, [ Trace (Trace_context_received { from; trace; span }) ])
  | Some
      (( Reconcile.Frontier_request _ | Reconcile.Frontier_reply _
       | Reconcile.Bloom_request _ | Reconcile.Bloom_reply _
       | Reconcile.Blocks_request _ | Reconcile.Blocks_reply _
       | Reconcile.Digest_request _ | Reconcile.Digest_reply _ ) as msg) -> begin
    match Reconcile.respond (serving_view t ~dag) msg with
    | Some reply ->
      (* It was a request. Silent peers do not answer. *)
      if (match t.config.Config.policy with
         | Silent -> true
         | Honest | Withholding -> false)
      then (t, [ Trace (Request_suppressed { src = from }) ])
      else
        (* The responder keeps no per-peer memory: the reply is a
           function of the request and the serving view alone, so a
           retransmitted request gets the same answer. *)
        let serving =
          match served_blocks reply with
          | [] -> []
          | blocks -> [ Trace (Blocks_served { dst = from; blocks }) ]
        in
        (t, Send { dst = from; bytes = encode reply } :: serving)
    | None when Reconcile.is_request msg ->
      (* A request the responder refuses is malformed, like a frame that
         does not decode: no reply, and no session state moves. *)
      (t, [ Trace (Decode_failed { from }) ])
    | None -> on_reply t ~now ~dag ~from msg
  end

let handle t ~now ~dag input =
  match input with
  | Message_received { from; bytes } -> on_message t ~now ~dag ~from bytes
  | Block_created b -> (absorb t b, [])
  | Tick { peer } -> tick t ~now ~dag ~peer
  | Timer_fired Gossip_round -> tick t ~now ~dag ~peer:None
  | Timer_fired (Session_timeout { generation }) -> begin
    match t.session with
    | Some s when Int.equal s.generation generation ->
      ( { t with session = None },
        [
          Trace
            (Session_aborted { dst = s.dst; generation; reason = Timed_out });
        ] )
    | Some _ | None -> (t, [])
  end

(* ------------------------------------------------------------------ *)
(* Equality and printing                                                *)

let abort_reason_equal a b =
  match (a, b) with
  | Stalled, Stalled | Timed_out, Timed_out -> true
  | (Stalled | Timed_out), (Stalled | Timed_out) -> false

let event_equal a b =
  match (a, b) with
  | Session_started a, Session_started b ->
    Int.equal a.dst b.dst && Int.equal a.generation b.generation
  | Request_resent a, Request_resent b ->
    Int.equal a.dst b.dst
    && Int.equal a.generation b.generation
    && Int.equal a.attempt b.attempt
  | Session_completed a, Session_completed b ->
    Int.equal a.dst b.dst
    && Int.equal a.generation b.generation
    && Int.equal a.blocks b.blocks
    && Float.equal a.duration_ms b.duration_ms
  | Session_aborted a, Session_aborted b ->
    Int.equal a.dst b.dst
    && Int.equal a.generation b.generation
    && abort_reason_equal a.reason b.reason
  | Request_suppressed a, Request_suppressed b -> Int.equal a.src b.src
  | Reply_ignored a, Reply_ignored b -> Int.equal a.from b.from
  | Decode_failed a, Decode_failed b -> Int.equal a.from b.from
  | Blocks_served a, Blocks_served b ->
    Int.equal a.dst b.dst && List.equal Hash_id.equal a.blocks b.blocks
  | Redundant_received a, Redundant_received b ->
    Int.equal a.from b.from && List.equal Hash_id.equal a.blocks b.blocks
  | Peer_advertised a, Peer_advertised b ->
    Int.equal a.from b.from && List.equal Hash_id.equal a.hashes b.hashes
  | Trace_context_sent a, Trace_context_sent b ->
    Int.equal a.dst b.dst
    && Int.equal a.generation b.generation
    && String.equal a.trace b.trace
    && String.equal a.span b.span
  | Trace_context_received a, Trace_context_received b ->
    Int.equal a.from b.from
    && String.equal a.trace b.trace
    && String.equal a.span b.span
  | ( ( Session_started _ | Request_resent _ | Session_completed _
      | Session_aborted _ | Request_suppressed _ | Reply_ignored _
      | Decode_failed _ | Blocks_served _ | Redundant_received _
      | Peer_advertised _ | Trace_context_sent _ | Trace_context_received _ ),
      _ ) ->
    false

let effect_equal a b =
  match (a, b) with
  | Send a, Send b -> Int.equal a.dst b.dst && String.equal a.bytes b.bytes
  | Set_timer a, Set_timer b ->
    String.equal (tag_of_timer a.key) (tag_of_timer b.key)
    && Float.equal a.after_ms b.after_ms
  | Deliver a, Deliver b -> List.equal Block.equal a b
  | Session_done a, Session_done b -> Reconcile.stats_equal a b
  | Trace a, Trace b -> event_equal a b
  | (Send _ | Set_timer _ | Deliver _ | Session_done _ | Trace _), _ -> false

let pp_abort_reason ppf = function
  | Stalled -> Fmt.string ppf "stalled"
  | Timed_out -> Fmt.string ppf "timed-out"

let pp_event ppf = function
  | Session_started { dst; generation } ->
    Fmt.pf ppf "session-started(dst=%d gen=%d)" dst generation
  | Request_resent { dst; generation; attempt } ->
    Fmt.pf ppf "request-resent(dst=%d gen=%d attempt=%d)" dst generation attempt
  | Session_completed { dst; generation; blocks; duration_ms } ->
    Fmt.pf ppf "session-completed(dst=%d gen=%d blocks=%d dur=%.0fms)" dst
      generation blocks duration_ms
  | Session_aborted { dst; generation; reason } ->
    Fmt.pf ppf "session-aborted(dst=%d gen=%d %a)" dst generation pp_abort_reason
      reason
  | Request_suppressed { src } -> Fmt.pf ppf "request-suppressed(src=%d)" src
  | Reply_ignored { from } -> Fmt.pf ppf "reply-ignored(from=%d)" from
  | Decode_failed { from } -> Fmt.pf ppf "decode-failed(from=%d)" from
  | Blocks_served { dst; blocks } ->
    Fmt.pf ppf "blocks-served(dst=%d %d blocks)" dst (List.length blocks)
  | Redundant_received { from; blocks } ->
    Fmt.pf ppf "redundant-received(from=%d %d blocks)" from (List.length blocks)
  | Peer_advertised { from; hashes } ->
    Fmt.pf ppf "peer-advertised(from=%d %d hashes)" from (List.length hashes)
  | Trace_context_sent { dst; generation; trace; span } ->
    Fmt.pf ppf "trace-context-sent(dst=%d gen=%d %s/%s)" dst generation trace
      span
  | Trace_context_received { from; trace; span } ->
    Fmt.pf ppf "trace-context-received(from=%d %s/%s)" from trace span

let pp_effect ppf = function
  | Send { dst; bytes } -> Fmt.pf ppf "send(dst=%d %dB)" dst (String.length bytes)
  | Set_timer { key; after_ms } ->
    Fmt.pf ppf "set-timer(%s +%.0fms)" (tag_of_timer key) after_ms
  | Deliver blocks -> Fmt.pf ppf "deliver(%d blocks)" (List.length blocks)
  | Session_done stats ->
    Fmt.pf ppf "session-done(rounds=%d blocks=%d)" stats.Reconcile.rounds
      stats.Reconcile.blocks_received
  | Trace ev -> Fmt.pf ppf "trace(%a)" pp_event ev
