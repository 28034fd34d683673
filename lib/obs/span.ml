(* Distributed spans: the typed layer that turns the flat event stream
   into per-trace span trees stitched across daemons.

   A span is identified by (trace, span) with an optional causal parent.
   All ids are deterministic 16-hex-char SHA-256 derivations — session
   spans from (initiator, generation) via Reconcile.session_trace_ids,
   block-propagation spans from the block hash itself — so every daemon
   that touches the same block or the same exchange mints the same ids
   with zero coordination, and same-seed runs journal byte-identical
   span streams. This module is pure (span-codec boundary): no clock,
   no randomness, no IO, no global state. *)

open Vegvisir

type t = {
  trace : string;
  span : string;
  parent : string option;
  name : string;
  node : string;
  start_ms : float;
  dur_ms : float;
}

let opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> String.equal a b
  | (None | Some _), (None | Some _) -> false

let equal a b =
  String.equal a.trace b.trace
  && String.equal a.span b.span
  && opt_equal a.parent b.parent
  && String.equal a.name b.name
  && String.equal a.node b.node
  && Float.equal a.start_ms b.start_ms
  && Float.equal a.dur_ms b.dur_ms

(* ------------------------------------------------------------------ *)
(* Deterministic identity                                               *)

let id_of_seed seed = String.sub (Hash_id.to_hex (Hash_id.digest seed)) 0 16

(* A block's propagation trace is named by the block hash itself: every
   daemon that ever sees the block derives the same trace id without
   any wire coordination. *)
let trace_of_block h = String.sub (Hash_id.to_hex h) 0 16

(* The root span of a trace is derived from the trace alone, so the
   creator (who emits it) and every downstream daemon (who parents
   under it) agree on the tree shape without exchanging span ids. *)
let root_of_trace trace = id_of_seed ("root:" ^ trace)

let derive ~trace ~node ~name =
  id_of_seed ("span:" ^ trace ^ ":" ^ node ^ ":" ^ name)

(* ------------------------------------------------------------------ *)
(* Folding the event stream into spans                                  *)

(* Block lifecycle events become instant spans of the block's own trace:
   [Created] is the root, every other phase hangs under it. Explicit
   [Event.Span] events (exchange sessions, serve spans) pass through
   with their carried identity; [ts] stamps the *end* of a span, so its
   start is [ts - dur]. *)
let of_event ~ts (ev : Event.t) =
  match ev with
  | Event.Span { node; trace; span; parent; name; dur_ms } ->
    Some { trace; span; parent; name; node; start_ms = ts -. dur_ms; dur_ms }
  | Event.Block { node; phase; block; peer = _ } ->
    let trace = trace_of_block block in
    let name = "block." ^ Event.phase_to_string phase in
    let span =
      match phase with
      | Event.Created -> root_of_trace trace
      | Event.Sent | Event.Received | Event.Validated | Event.Delivered
      | Event.Witnessed ->
        derive ~trace ~node ~name
    in
    let parent =
      match phase with
      | Event.Created -> None
      | Event.Sent | Event.Received | Event.Validated | Event.Delivered
      | Event.Witnessed ->
        Some (root_of_trace trace)
    in
    Some { trace; span; parent; name; node; start_ms = ts; dur_ms = 0. }
  | Event.Block_redundant _
  | Event.Blocks_advertised _ | Event.Net_sent _ | Event.Net_delivered _
  | Event.Net_dropped _ | Event.Partition_changed _ | Event.Session_started _
  | Event.Session_completed _ | Event.Session_aborted _
  | Event.Request_resent _ | Event.Leader_elected _ | Event.Block_archived _
  | Event.Store_loaded _ | Event.Store_saved _ | Event.Sync_started _
  | Event.Sync_completed _ | Event.Recovery_completed _ ->
    None

let of_events events = List.filter_map (fun (ts, ev) -> of_event ~ts ev) events

(* ------------------------------------------------------------------ *)
(* Live collector: a span-event filter in front of a Sink.Ring         *)

module Collector = struct
  type span = t

  (* The ring stores raw [(ts, event)] pairs and defers span
     materialisation to [spans]: the emit path allocates nothing, and the
     SHA-256 id derivation for block spans only runs when the ring is
     actually read. *)
  type t = Sink.Ring.t

  let create ~capacity =
    if capacity <= 0 then
      invalid_arg "Span.Collector.create: capacity must be positive";
    Sink.Ring.create ~capacity

  let observe t ~ts (ev : Event.t) =
    match ev with
    | Event.Span _ | Event.Block _ -> Sink.Ring.record t ~ts ev
    | Event.Block_redundant _
    | Event.Blocks_advertised _ | Event.Net_sent _
    | Event.Net_delivered _ | Event.Net_dropped _ | Event.Partition_changed _
    | Event.Session_started _ | Event.Session_completed _
    | Event.Session_aborted _ | Event.Request_resent _ | Event.Leader_elected _
    | Event.Block_archived _ | Event.Store_loaded _ | Event.Store_saved _
    | Event.Sync_started _ | Event.Sync_completed _ | Event.Recovery_completed _
      ->
      ()

  (* lint: allow boundary-purity — Sink.make's flush defaults to a no-op; the io in the witness chain belongs to other call sites' flush callbacks, merged by the higher-order analysis *)
  let sink t = Sink.make (fun ~ts ev -> observe t ~ts ev)
  let collected = Sink.Ring.recorded
  let dropped = Sink.Ring.dropped

  let spans t =
    List.filter_map (fun (ts, ev) -> of_event ~ts ev) (Sink.Ring.events t)
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let add_span_json b s =
  Buffer.add_string b "{\"trace\":";
  Buffer.add_string b (Event.json_string s.trace);
  Buffer.add_string b ",\"span\":";
  Buffer.add_string b (Event.json_string s.span);
  (match s.parent with
  | None -> ()
  | Some p ->
    Buffer.add_string b ",\"parent\":";
    Buffer.add_string b (Event.json_string p));
  Buffer.add_string b ",\"name\":";
  Buffer.add_string b (Event.json_string s.name);
  Buffer.add_string b ",\"node\":";
  Buffer.add_string b (Event.json_string s.node);
  Buffer.add_string b ",\"start_ms\":";
  Buffer.add_string b (Event.json_float s.start_ms);
  Buffer.add_string b ",\"dur_ms\":";
  Buffer.add_string b (Event.json_float s.dur_ms);
  Buffer.add_char b '}'

(* The /debug/spans payload: one span object per line inside a JSON
   array, mirroring Registry.render_json's shape. *)
let render_json spans =
  let b = Buffer.create 512 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  ";
      add_span_json b s)
    spans;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (Perfetto / chrome://tracing)              *)

module Ids = Map.Make (String)

(* First-appearance interning: ids count up from 1 in the order keys are
   first seen, so the export is byte-deterministic. An ordered map keeps
   it O(log n) per span and free of hash-table iteration order. *)
type interner = { mutable ids : int Ids.t; mutable count : int }

let interner () = { ids = Ids.empty; count = 0 }

let intern t key =
  match Ids.find_opt key t.ids with
  | Some id -> id
  | None ->
    t.count <- t.count + 1;
    t.ids <- Ids.add key t.count t.ids;
    t.count

let add_chrome_args b (s : t) =
  Buffer.add_string b ",\"args\":{\"trace\":";
  Buffer.add_string b (Event.json_string s.trace);
  Buffer.add_string b ",\"span\":";
  Buffer.add_string b (Event.json_string s.span);
  (match s.parent with
  | None -> ()
  | Some p ->
    Buffer.add_string b ",\"parent\":";
    Buffer.add_string b (Event.json_string p));
  Buffer.add_string b ",\"node\":";
  Buffer.add_string b (Event.json_string s.node);
  Buffer.add_string b "}"

(* One Chrome trace-event JSON document over an event stream (a replayed
   journal, a flight ring, a live collector's spans). Every node becomes
   a process (with a "process_name" metadata row), every trace a thread
   within it, spans with a duration become "X" complete events and
   instant spans "i" points; timestamps are microseconds as the format
   demands. Loadable directly in Perfetto. *)
let chrome_trace spans =
  let pids = interner () in
  let tids = interner () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",";
    Buffer.add_string b "\n  "
  in
  (* Metadata rows lead the document, one per process in
     first-appearance order. *)
  List.iter
    (fun s ->
      let known = pids.count in
      let pid = intern pids s.node in
      if pid > known then begin
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
             pid);
        Buffer.add_string b (Event.json_string ("node " ^ s.node));
        Buffer.add_string b "}}"
      end)
    spans;
  List.iter
    (fun s ->
      let pid = intern pids s.node in
      let tid = intern tids s.trace in
      sep ();
      if s.dur_ms > 0. then begin
        Buffer.add_string b
          (Printf.sprintf "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":" pid tid);
        Buffer.add_string b (Event.json_float (s.start_ms *. 1000.));
        Buffer.add_string b ",\"dur\":";
        Buffer.add_string b (Event.json_float (s.dur_ms *. 1000.));
        Buffer.add_string b ",\"name\":";
        Buffer.add_string b (Event.json_string s.name);
        add_chrome_args b s;
        Buffer.add_string b "}"
      end
      else begin
        Buffer.add_string b
          (Printf.sprintf "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":" pid tid);
        Buffer.add_string b (Event.json_float (s.start_ms *. 1000.));
        Buffer.add_string b ",\"s\":\"p\",\"name\":";
        Buffer.add_string b (Event.json_string s.name);
        add_chrome_args b s;
        Buffer.add_string b "}"
      end)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
