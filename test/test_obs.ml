(* Unit tests for the observability layer: event codec, sinks, registry,
   causal traces, and the determinism guarantee (same seed => byte-
   identical JSONL trace output from a full fleet run). *)

open Vegvisir_obs
module V = Vegvisir
module Net = Vegvisir_net

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_f = Alcotest.(check (float 1e-9))

let h s = V.Hash_id.digest s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Event codec                                                          *)

(* One sample per constructor, covering every phase and reason payload. *)
let all_events =
  let b = h "block-a" in
  Event.
    [
      Block { node = "0"; phase = Created; block = b; peer = None };
      Block { node = "0"; phase = Sent; block = b; peer = Some "1" };
      Block { node = "1"; phase = Received; block = b; peer = Some "0" };
      Block { node = "1"; phase = Validated; block = b; peer = None };
      Block { node = "1"; phase = Delivered; block = b; peer = None };
      Block { node = "1"; phase = Witnessed; block = b; peer = Some "ab12cd34" };
      Blocks_advertised { node = "1"; peer = "0"; hashes = 17 };
      Net_sent { src = "0"; dst = "1"; bytes = 512 };
      Net_delivered { src = "0"; dst = "1"; bytes = 512 };
      Net_dropped { src = "0"; dst = "1"; bytes = 9; reason = Link_loss };
      Net_dropped { src = "1"; dst = "0"; bytes = 9; reason = Disconnected };
      Net_dropped { src = "1"; dst = "2"; bytes = 9; reason = Asleep };
      Session_started { node = "0"; peer = "1"; generation = 3 };
      Session_completed
        { node = "0"; peer = "1"; generation = 3; blocks = 7; duration_ms = 12.5 };
      Session_aborted { node = "0"; peer = "1"; generation = 4; reason = Stalled };
      Session_aborted { node = "1"; peer = "0"; generation = 5; reason = Timed_out };
      Request_resent { node = "0"; peer = "1"; generation = 4; attempt = 2 };
      Leader_elected { node = "2"; term = 6 };
      Block_archived { node = "2"; block = h "block-a"; index = 41 };
      Store_loaded { node = "ab12cd34"; blocks = 12 };
      Store_saved { node = "ab12cd34"; blocks = 13 };
      Sync_started { node = "ab12cd34"; peer = "remote" };
      Sync_completed { node = "ab12cd34"; peer = "remote"; pulled = 2; served = 1 };
      Block_redundant { node = "1"; block = b; peer = Some "0" };
      Block_redundant { node = "2"; block = b; peer = None };
      Partition_changed { groups = Some [ 0; 0; 1; 1 ] };
      Partition_changed { groups = None };
      Partition_changed { groups = Some [] };
      Recovery_completed { node = "ab12cd34"; peer = "remote"; blocks = 4 };
      Span
        {
          node = "0";
          trace = "aabbccddeeff0011";
          span = "1122334455667788";
          parent = None;
          name = "session.announce";
          dur_ms = 0.;
        };
      Span
        {
          node = "1";
          trace = "aabbccddeeff0011";
          span = "8877665544332211";
          parent = Some "1122334455667788";
          name = "session.exchange";
          dur_ms = 12.5;
        };
    ]

(* Adding an Event.t constructor breaks this exhaustive match, which
   points here: [all_events] then needs a sample of it, and
   [gen_event] a generator. *)
let event_tag : Event.t -> int = function
  | Block _ -> 0
  | Block_redundant _ -> 1
  | Blocks_advertised _ -> 2
  | Net_sent _ -> 3
  | Net_delivered _ -> 4
  | Net_dropped _ -> 5
  | Partition_changed _ -> 6
  | Session_started _ -> 7
  | Session_completed _ -> 8
  | Session_aborted _ -> 9
  | Request_resent _ -> 10
  | Leader_elected _ -> 11
  | Block_archived _ -> 12
  | Store_loaded _ -> 13
  | Store_saved _ -> 14
  | Sync_started _ -> 15
  | Sync_completed _ -> 16
  | Recovery_completed _ -> 17
  | Span _ -> 18

let event_tags = 19

(* [Event.equal] reads the encoder's own field list, so the round trip
   compares structurally instead. *)
let jsonl_roundtrip () =
  let sampled = List.map event_tag all_events in
  List.iter
    (fun tag ->
      check_b (Printf.sprintf "constructor %d sampled" tag) true
        (List.mem tag sampled))
    (List.init event_tags Fun.id);
  List.iteri
    (fun i ev ->
      let ts = 0.5 +. (float_of_int i *. 13.25) in
      let line = Event.to_json ~ts ev in
      match Event.of_json line with
      | None -> Alcotest.failf "event %d did not decode: %s" i line
      | Some decoded ->
        check_b (Printf.sprintf "event %d round-trips: %s" i line) true
          (decoded = (ts, ev)))
    all_events

(* Strings with quotes, backslashes, control bytes, DEL, UTF-8 and
   arbitrary bytes, or empty. *)
let gen_string =
  QCheck.Gen.(
    let piece =
      oneof
        [
          map (String.make 1) char;
          oneofl
            [ "\""; "\\"; "\\u0041"; "\n"; "\r\t"; "\000"; "\031"; "\127";
              "é"; "漢字"; "🙂"; "-"; ","; "node-7" ];
        ]
    in
    map (String.concat "") (list_size (int_bound 6) piece))

let gen_int =
  QCheck.Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ])

let gen_float =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        map (fun f -> if Float.is_finite f then f else 2.5) float;
        oneofl [ 0.; -0.; 5e-324; 1e15; 1e300; -1e-300; 0.1; 1. /. 3. ];
      ])

let gen_event =
  let open QCheck.Gen in
  let str = gen_string and int = gen_int in
  let hash = map V.Hash_id.digest gen_string in
  let peer = opt gen_string in
  let phase =
    oneofl Event.[ Created; Sent; Received; Validated; Delivered; Witnessed ]
  in
  let ( let+ ) g f = map f g and ( and+ ) = pair in
  oneof
    [
      (let+ node = str and+ phase = phase and+ block = hash and+ peer = peer in
       Event.Block { node; phase; block; peer });
      (let+ node = str and+ block = hash and+ peer = peer in
       Event.Block_redundant { node; block; peer });
      (let+ node = str and+ peer = str and+ hashes = int in
       Event.Blocks_advertised { node; peer; hashes });
      (let+ src = str and+ dst = str and+ bytes = int in
       Event.Net_sent { src; dst; bytes });
      (let+ src = str and+ dst = str and+ bytes = int in
       Event.Net_delivered { src; dst; bytes });
      (let+ src = str and+ dst = str and+ bytes = int
       and+ reason = oneofl Event.[ Link_loss; Disconnected; Asleep ] in
       Event.Net_dropped { src; dst; bytes; reason });
      (let+ groups = opt (list_size (int_bound 5) int) in
       Event.Partition_changed { groups });
      (let+ node = str and+ peer = str and+ generation = int in
       Event.Session_started { node; peer; generation });
      (let+ node = str and+ peer = str and+ generation = int and+ blocks = int
       and+ duration_ms = gen_float in
       Event.Session_completed { node; peer; generation; blocks; duration_ms });
      (let+ node = str and+ peer = str and+ generation = int
       and+ reason = oneofl Event.[ Stalled; Timed_out ] in
       Event.Session_aborted { node; peer; generation; reason });
      (let+ node = str and+ peer = str and+ generation = int
       and+ attempt = int in
       Event.Request_resent { node; peer; generation; attempt });
      (let+ node = str and+ term = int in Event.Leader_elected { node; term });
      (let+ node = str and+ block = hash and+ index = int in
       Event.Block_archived { node; block; index });
      (let+ node = str and+ blocks = int in Event.Store_loaded { node; blocks });
      (let+ node = str and+ blocks = int in Event.Store_saved { node; blocks });
      (let+ node = str and+ peer = str in Event.Sync_started { node; peer });
      (let+ node = str and+ peer = str and+ pulled = int and+ served = int in
       Event.Sync_completed { node; peer; pulled; served });
      (let+ node = str and+ peer = str and+ blocks = int in
       Event.Recovery_completed { node; peer; blocks });
      (let+ node = str and+ trace = str and+ span = str and+ parent = opt str
       and+ name = str and+ dur_ms = gen_float in
       Event.Span { node; trace; span; parent; name; dur_ms });
    ]

let codec_roundtrip_qcheck =
  QCheck.Test.make ~count:1000 ~name:"random events round-trip"
    (QCheck.make
       ~print:(fun (ts, ev) -> Event.to_json ~ts ev)
       QCheck.Gen.(pair gen_float gen_event))
    (fun (ts, ev) -> Event.of_json (Event.to_json ~ts ev) = Some (ts, ev))

(* A journal batch is rendered with its shared stamp once: the lines
   must be what rendering each event alone gives. Stamps are integral
   (one [%.1f]), wall-clock milliseconds with a fraction (which need
   [%.17g]) or any codec float; node and peer strings need escaping. *)
let journal_batch_qcheck =
  let gen_ts =
    QCheck.Gen.(
      oneof
        [
          map float_of_int (int_bound 1_000_000_000);
          map (fun f -> 1.7e12 +. f) (float_range 0. 1e9);
          gen_float;
        ])
  in
  QCheck.Test.make ~count:500 ~name:"journal batch = per-event lines"
    (QCheck.make
       ~print:(fun (ts, evs) -> String.concat "\n" (List.map (Event.to_json ~ts) evs))
       QCheck.Gen.(pair gen_ts (list_size (int_bound 8) gen_event)))
    (fun (ts, evs) ->
      let b = Buffer.create 256 in
      Buffer.add_string b "kept:";
      Event.to_json_lines b ~ts evs;
      String.equal (Buffer.contents b)
        ("kept:" ^ String.concat "" (List.map (fun ev -> Event.to_json ~ts ev ^ "\n") evs)))

let jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      check_b line true (Event.of_json line = None))
    [
      "";
      "{}";
      "not json";
      {|{"t":1.0,"sub":"block","ev":"nope"}|};
      (* Retired kinds, as older journals recorded them: skipped on load. *)
      {|{"t":1.0,"sub":"gossip","ev":"blocks-suppressed","node":"0","peer":"1","blocks":3}|};
      {|{"t":1.0,"sub":"gossip","ev":"block-dropped","node":"2","block":"|}
      ^ V.Hash_id.to_hex (h "block-b") ^ {|"}|};
    ]

let json_float_exact () =
  List.iter
    (fun f ->
      check_b
        (Printf.sprintf "%h survives" f)
        true
        (Float.equal (float_of_string (Event.json_float f)) f))
    [ 0.; 1.; -2.; 0.1; 1. /. 3.; 1e17; 1.000000000000004; 12345.6789 ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)

let ring_keeps_most_recent () =
  let ring = Sink.Ring.create ~capacity:2 in
  let s = Sink.Ring.sink ring in
  List.iteri
    (fun i ev -> Sink.emit s ~ts:(float_of_int i) ev)
    [
      Event.Net_sent { src = "0"; dst = "1"; bytes = 1 };
      Event.Net_sent { src = "0"; dst = "1"; bytes = 2 };
      Event.Net_sent { src = "0"; dst = "1"; bytes = 3 };
    ];
  check_i "recorded" 3 (Sink.Ring.recorded ring);
  check_i "dropped" 1 (Sink.Ring.dropped ring);
  match Sink.Ring.events ring with
  | [ (t1, Event.Net_sent { bytes = b1; _ }); (t2, Event.Net_sent { bytes = b2; _ }) ]
    ->
    check_f "oldest first" 1. t1;
    check_f "newest last" 2. t2;
    check_i "payload 1" 2 b1;
    check_i "payload 2" 3 b2
  | _ -> Alcotest.fail "expected the two most recent events"

let jsonl_sink_writes_lines () =
  let buf = Buffer.create 64 in
  let s = Sink.jsonl (Buffer.add_string buf) in
  Sink.emit s ~ts:1. (Event.Net_sent { src = "0"; dst = "1"; bytes = 7 });
  Sink.emit s ~ts:2. (Event.Leader_elected { node = "3"; term = 1 });
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  check_i "two lines + trailing" 3 (List.length lines);
  let decoded = List.filter_map Event.of_json lines in
  check_i "both decode" 2 (List.length decoded)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)

let registry_counters () =
  let r = Registry.create () in
  let a = Registry.counter r ~node:"0" "sess" in
  let b = Registry.counter r ~node:"1" "sess" in
  Registry.incr a;
  Registry.incr a;
  Registry.add b 5;
  check_i "read a" 2 (Registry.read r ~node:"0" "sess");
  check_i "read b" 5 (Registry.read r ~node:"1" "sess");
  check_i "read absent" 0 (Registry.read r "sess");
  check_i "total" 7 (Registry.total r "sess");
  check_b "get-or-create aliases" true
    (Registry.counter_value (Registry.counter r ~node:"0" "sess") = 2);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Registry: sess{node=0} already registered with another kind (wanted \
        gauge)")
    (fun () -> ignore (Registry.gauge r ~node:"0" "sess"))

let histogram_boundaries () =
  let r = Registry.create () in
  let hst = Registry.histogram r ~buckets:[ 10.; 20. ] "lat" in
  (* A bucket's bound is inclusive: v <= le. *)
  List.iter (Registry.observe hst) [ 9.9; 10.; 10.1; 20.; 20.000001; 1000. ];
  (match Registry.snapshot r with
  | [ (("lat", ""), Registry.Histogram { buckets; overflow; sum = _; observations }) ]
    ->
    Alcotest.(check (list (pair (float 1e-9) int)))
      "bucket counts"
      [ (10., 2); (20., 2) ]
      buckets;
    check_i "overflow" 2 overflow;
    check_i "observations" 6 observations
  | _ -> Alcotest.fail "expected one histogram row");
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Registry.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Registry.histogram r ~buckets:[ 5.; 5. ] "bad"))

let snapshot_order_and_aggregate () =
  let r = Registry.create () in
  (* Registration order is scrambled on purpose: snapshots sort by
     (name, node), so output order must not depend on it. *)
  Registry.add (Registry.counter r ~node:"1" "b") 3;
  Registry.add (Registry.counter r ~node:"0" "b") 2;
  Registry.add (Registry.counter r "a") 1;
  let keys = List.map fst (Registry.snapshot r) in
  Alcotest.(check (list (pair string string)))
    "canonical order"
    [ ("a", ""); ("b", "0"); ("b", "1") ]
    keys;
  (match Registry.aggregate (Registry.snapshot r) with
  | [ (("a", ""), Registry.Counter 1); (("b", ""), Registry.Counter 5) ] -> ()
  | _ -> Alcotest.fail "aggregate should sum node labels");
  let text = Registry.render_text (Registry.snapshot r) in
  check_s "render_text" "a 1\nb{node=0} 2\nb{node=1} 3\n" text

(* ------------------------------------------------------------------ *)
(* A block's trace: its lifecycle events fold into one span tree        *)

let trace_queries () =
  let b = h "traced" in
  let ev node phase peer = Event.Block { node; phase; block = b; peer } in
  let spans =
    Span.of_events
      [
        (0., ev "0" Event.Created None);
        (1., ev "0" Event.Sent (Some "1"));
        (2., ev "1" Event.Received (Some "0"));
        (2., ev "1" Event.Validated None);
        (3., ev "1" Event.Delivered None);
        (4., ev "1" Event.Witnessed (Some "w1"));
        (* A non-block event yields no span. *)
        (5., Event.Net_sent { src = "0"; dst = "1"; bytes = 1 });
        (9., ev "1" Event.Witnessed (Some "w2"));
      ]
  in
  let trace = Span.trace_of_block b in
  let root = Span.root_of_trace trace in
  check_i "seven spans" 7 (List.length spans);
  check_b "all in the block's trace" true
    (List.for_all (fun (s : Span.t) -> String.equal s.trace trace) spans);
  Alcotest.(check (list string))
    "names in journal order"
    [ "block.created"; "block.sent"; "block.received"; "block.validated";
      "block.delivered"; "block.witnessed"; "block.witnessed" ]
    (List.map (fun (s : Span.t) -> s.name) spans);
  match spans with
  | created :: children ->
    check_s "created is the root" root created.Span.span;
    check_b "root has no parent" true (created.Span.parent = None);
    check_b "the other six are its children" true
      (List.for_all (fun (s : Span.t) -> s.parent = Some root) children)
  | [] -> Alcotest.fail "no spans"

(* ------------------------------------------------------------------ *)
(* Spans: deterministic ids, event folding, collector, exporters        *)

let span_identity_deterministic () =
  let b = h "span-block" in
  let trace = Span.trace_of_block b in
  check_i "trace id is 16 hex chars" 16 (String.length trace);
  check_s "trace = hash prefix" (String.sub (V.Hash_id.to_hex b) 0 16) trace;
  check_s "root stable" (Span.root_of_trace trace) (Span.root_of_trace trace);
  check_s "derive stable"
    (Span.derive ~trace ~node:"0" ~name:"block.received")
    (Span.derive ~trace ~node:"0" ~name:"block.received");
  check_b "derive keyed by node" true
    (not
       (String.equal
          (Span.derive ~trace ~node:"0" ~name:"block.received")
          (Span.derive ~trace ~node:"1" ~name:"block.received")))

let span_of_event_fold () =
  let b = h "fold-block" in
  let trace = Span.trace_of_block b in
  let root = Span.root_of_trace trace in
  (match
     Span.of_event ~ts:5.
       (Event.Block { node = "0"; phase = Event.Created; block = b; peer = None })
   with
  | Some s ->
    check_s "created trace" trace s.Span.trace;
    check_s "created is the root" root s.Span.span;
    check_b "root has no parent" true (s.Span.parent = None);
    check_s "created name" "block.created" s.Span.name;
    check_f "instant" 0. s.Span.dur_ms
  | None -> Alcotest.fail "Created must fold to a span");
  (match
     Span.of_event ~ts:9.
       (Event.Block
          { node = "1"; phase = Event.Received; block = b; peer = Some "0" })
   with
  | Some s ->
    check_s "child trace" trace s.Span.trace;
    check_s "child parent is the root" root (Option.get s.Span.parent);
    check_s "child id derived"
      (Span.derive ~trace ~node:"1" ~name:"block.received")
      s.Span.span
  | None -> Alcotest.fail "Received must fold to a span");
  (* An explicit Span event passes its identity through; ts stamps the
     end, so the start backs off by the duration. *)
  (match
     Span.of_event ~ts:20.
       (Event.Span
          {
            node = "0";
            trace;
            span = "0011223344556677";
            parent = Some root;
            name = "session.exchange";
            dur_ms = 12.;
          })
   with
  | Some s ->
    check_f "start = ts - dur" 8. s.Span.start_ms;
    check_f "duration carried" 12. s.Span.dur_ms
  | None -> Alcotest.fail "Span event must fold to a span");
  check_b "non-lifecycle events fold to None" true
    (Span.of_event ~ts:1. (Event.Net_sent { src = "0"; dst = "1"; bytes = 1 })
     = None
    && Span.of_event ~ts:1.
         (Event.Session_started { node = "0"; peer = "1"; generation = 1 })
       = None)

(* Property: a capacity-bounded collector fed event by event always
   holds exactly the last [capacity] spans of the of_events oracle. *)
let span_collector_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"span collector = of_events oracle suffix"
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 0 60) (pair (int_bound 3) (int_bound 6))))
    (fun (cap, ops) ->
      let blocks = Array.init 4 (fun i -> h (Printf.sprintf "sp-%d" i)) in
      let ev_of (b, k) =
        let block = blocks.(b) in
        let trace = Span.trace_of_block block in
        match k with
        | 0 ->
          Event.Block { node = "0"; phase = Event.Created; block; peer = None }
        | 1 ->
          Event.Block
            { node = "1"; phase = Event.Received; block; peer = Some "0" }
        | 2 ->
          Event.Block
            { node = "1"; phase = Event.Delivered; block; peer = None }
        | 3 -> Event.Net_sent { src = "0"; dst = "1"; bytes = 1 }
        | 4 -> Event.Session_started { node = "0"; peer = "1"; generation = b }
        | 5 ->
          Event.Span
            {
              node = "0";
              trace;
              span = Span.derive ~trace ~node:"0" ~name:"session.exchange";
              parent = Some (Span.root_of_trace trace);
              name = "session.exchange";
              dur_ms = 3.5;
            }
        | _ ->
          Event.Block
            { node = "0"; phase = Event.Witnessed; block; peer = Some "w" }
      in
      let events = List.mapi (fun i op -> (float_of_int i, ev_of op)) ops in
      let oracle = Span.of_events events in
      let skip = List.length oracle - min cap (List.length oracle) in
      let expected = List.filteri (fun i _ -> i >= skip) oracle in
      let c = Span.Collector.create ~capacity:cap in
      List.iter (fun (ts, ev) -> Span.Collector.observe c ~ts ev) events;
      let got = Span.Collector.spans c in
      Span.Collector.collected c = List.length oracle
      && Span.Collector.dropped c = skip
      && List.length got = List.length expected
      && List.for_all2 Span.equal got expected)

let span_render_json_shape () =
  let b = h "render-block" in
  let spans =
    Span.of_events
      [
        (1., Event.Block { node = "0"; phase = Event.Created; block = b; peer = None });
        (2., Event.Block { node = "1"; phase = Event.Received; block = b; peer = Some "0" });
      ]
  in
  let body = Span.render_json spans in
  check_s "deterministic" body (Span.render_json spans);
  check_b "array shape" true
    (String.length body > 2
    && Char.equal body.[0] '['
    && String.equal (String.sub body (String.length body - 3) 3) "\n]\n");
  check_b "carries the trace id" true (contains body (Span.trace_of_block b));
  check_b "parent only on children" true (contains body {|"parent":|});
  check_s "empty list still valid" "[\n]\n" (Span.render_json [])

let span_chrome_export () =
  let b = h "chrome-block" in
  let trace = Span.trace_of_block b in
  let spans =
    Span.of_events
      [
        (1., Event.Block { node = "0"; phase = Event.Created; block = b; peer = None });
        (2., Event.Block { node = "1"; phase = Event.Received; block = b; peer = Some "0" });
        ( 5.,
          Event.Span
            {
              node = "0";
              trace;
              span = Span.derive ~trace ~node:"0" ~name:"session.exchange";
              parent = Some (Span.root_of_trace trace);
              name = "session.exchange";
              dur_ms = 4.;
            } );
      ]
  in
  check_i "three spans" 3 (List.length spans);
  let doc = Span.chrome_trace spans in
  check_s "deterministic" doc (Span.chrome_trace spans);
  check_b "traceEvents envelope" true
    (String.length doc > 16 && String.equal (String.sub doc 0 16) {|{"traceEvents":[|});
  check_b "process metadata rows" true
    (contains doc {|"name":"process_name"|}
    && contains doc {|"args":{"name":"node 0"}|}
    && contains doc {|"args":{"name":"node 1"}|});
  check_b "instant events" true (contains doc {|"ph":"i"|} && contains doc {|"s":"p"|});
  check_b "complete event with µs duration" true
    (contains doc {|"ph":"X"|} && contains doc {|"dur":4000.0|});
  (* Cheap well-formedness proxy: every brace/bracket balances (no
     braces ever appear inside our string payloads). *)
  let depth = ref 0 and ok = ref true in
  String.iter
    (fun c ->
      (match c with
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ());
      if !depth < 0 then ok := false)
    doc;
  check_b "balanced json" true (!ok && !depth = 0)

(* Pids and tids count up in first-appearance order, not key order:
   node "b" appears before "a", trace "z" before "y". *)
let span_chrome_first_appearance () =
  let span ?parent node trace name start_ms dur_ms =
    { Span.trace; span = "s-" ^ name; parent; name; node; start_ms; dur_ms }
  in
  let doc =
    Span.chrome_trace
      [
        span "b" "z" "one" 1. 0.;
        span ~parent:"s-one" "a" "y" "two" 2. 1.;
        span "b" "y" "three" 3. 0.;
        span "a" "z" "four" 4. 0.;
      ]
  in
  check_s "rows and ids"
    (String.concat "\n"
       [
         {|{"traceEvents":[|};
         {|  {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"node b"}},|};
         {|  {"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"node a"}},|};
         {|  {"ph":"i","pid":1,"tid":1,"ts":1000.0,"s":"p","name":"one","args":{"trace":"z","span":"s-one","node":"b"}},|};
         {|  {"ph":"X","pid":2,"tid":2,"ts":2000.0,"dur":1000.0,"name":"two","args":{"trace":"y","span":"s-two","parent":"s-one","node":"a"}},|};
         {|  {"ph":"i","pid":1,"tid":2,"ts":3000.0,"s":"p","name":"three","args":{"trace":"y","span":"s-three","node":"b"}},|};
         {|  {"ph":"i","pid":2,"tid":1,"ts":4000.0,"s":"p","name":"four","args":{"trace":"z","span":"s-four","node":"a"}}|};
         {|]}|};
         "";
       ])
    doc

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)

let flight_dump_format () =
  let f = Flight.create ~capacity:2 () in
  List.iteri
    (fun i ev -> Flight.record f ~ts:(float_of_int i) ev)
    [
      Event.Net_sent { src = "0"; dst = "1"; bytes = 1 };
      Event.Leader_elected { node = "2"; term = 4 };
      Event.Store_saved { node = "ab"; blocks = 9 };
    ];
  check_i "recorded" 3 (Flight.recorded f);
  check_i "dropped" 1 (Flight.dropped f);
  let reg = Registry.create () in
  Registry.add (Registry.counter reg ~node:"0" "sess") 2;
  let dump = Flight.dump f ~snapshot:(Registry.snapshot reg) in
  match String.split_on_char '\n' dump with
  | [ header; e1; e2; registry; "" ] ->
    check_s "header"
      {|{"flight":{"capacity":2,"recorded":3,"dropped":1}}|} header;
    (* The body lines are plain journal lines: standard tooling decodes
       them unchanged, oldest first. *)
    (match List.filter_map Event.of_json [ e1; e2 ] with
    | [ (t1, Event.Leader_elected _); (t2, Event.Store_saved _) ] ->
      check_f "oldest retained first" 1. t1;
      check_f "newest last" 2. t2
    | _ -> Alcotest.fail "flight body lines must decode as journal events");
    check_b "registry snapshot on one line" true
      (String.length registry > 12
      && String.equal (String.sub registry 0 12) {|{"registry":|}
      && contains registry "sess")
  | _ -> Alcotest.failf "unexpected dump shape: %s" dump

(* ------------------------------------------------------------------ *)
(* Fleet integration: stitching and byte-level determinism              *)

let run_fleet ?jsonl_into ?attach ~seed until_ms =
  let obs = Context.create () in
  (match jsonl_into with
  | Some buf -> Context.attach obs (Sink.jsonl (Buffer.add_string buf))
  | None -> ());
  (match attach with Some s -> Context.attach obs s | None -> ());
  let fleet = Net.Scenario.build ~seed ~obs ~topo:(Net.Topology.clique ~n:2) () in
  (* Each peer authors one (empty, witnessing) block so there is block
     traffic to trace; [] transactions keeps the fixture self-contained. *)
  (match (Net.Gossip.append fleet.Net.Scenario.gossip 0 [],
          Net.Gossip.append fleet.Net.Scenario.gossip 1 []) with
  | Ok _, Ok _ -> ()
  | (Error _, _ | _, Error _) -> Alcotest.fail "fixture append failed");
  Net.Scenario.run fleet ~until_ms;
  fleet

let two_node_stitching () =
  let events = ref [] in
  let collect = Sink.make (fun ~ts ev -> events := (ts, ev) :: !events) in
  let fleet = run_fleet ~attach:collect ~seed:404L 30_000. in
  let spans = Span.of_events (List.rev !events) in
  (* The (node, time) of each span of one name within one trace. *)
  let at trace name =
    List.filter_map
      (fun (s : Span.t) ->
        if String.equal s.trace trace && String.equal s.name name then
          Some (s.node, s.start_ms)
        else None)
      spans
  in
  let traces =
    List.sort_uniq String.compare (List.map (fun (s : Span.t) -> s.trace) spans)
  in
  (* A block one node created and another received and delivered. *)
  let stitched =
    List.filter_map
      (fun trace ->
        match at trace "block.created" with
        | [ (creator, t0) ] ->
          let away = List.filter (fun (n, _) -> not (String.equal n creator)) in
          if away (at trace "block.received") <> [] then
            match away (at trace "block.delivered") with
            | [] -> None
            | delivs -> Some (t0, delivs)
          else None
        | _ -> None)
      traces
  in
  check_b "some block crossed nodes" true (stitched <> []);
  List.iter
    (fun (t0, delivs) ->
      check_b "latency positive" true
        (List.for_all (fun (_, t) -> t -. t0 > 0.) delivs))
    stitched;
  (* Counters derived from the same stream agree with the trace. *)
  let reg = Context.registry fleet.Net.Scenario.obs in
  check_b "delivered counter populated" true
    (Registry.total reg "block.delivered" > 0);
  check_b "sessions completed" true (Registry.total reg "session.completed" > 0)

(* ------------------------------------------------------------------ *)
(* Engine trace -> obs events                                           *)

module Peer_engine = Vegvisir_engine.Peer_engine

(* Adding a Peer_engine.event constructor breaks this exhaustive match,
   which points here: the golden table below then needs a row for it
   and its row count a bump. *)
let engine_event_tag = function
  | Peer_engine.Session_started _ -> 0
  | Peer_engine.Request_resent _ -> 1
  | Peer_engine.Session_completed _ -> 2
  | Peer_engine.Session_aborted _ -> 3
  | Peer_engine.Request_suppressed _ -> 4
  | Peer_engine.Reply_ignored _ -> 5
  | Peer_engine.Decode_failed _ -> 6
  | Peer_engine.Blocks_served _ -> 7
  | Peer_engine.Redundant_received _ -> 8
  | Peer_engine.Peer_advertised _ -> 9
  | Peer_engine.Trace_context_sent _ -> 10
  | Peer_engine.Trace_context_received _ -> 11

(* Every engine trace and the events a daemon session journals for it
   (node "ab12cd34", engine peer 7 named "peer-7"), written out
   literally, span ids included, so the table pins the journal bytes. *)
let engine_events_golden () =
  let a = h "golden-a" and b = h "golden-b" and c = h "golden-c" in
  let node = "ab12cd34" and peer = "peer-7" in
  let trace = "aabbccddeeff0011" and root = "1122334455667788" in
  let ctx = Some (trace, root) in
  let completed =
    Peer_engine.Session_completed
      { dst = 7; generation = 3; blocks = 5; duration_ms = 12.5 }
  in
  let completed_ev =
    Event.Session_completed
      { node; peer; generation = 3; blocks = 5; duration_ms = 12.5 }
  in
  let span span parent name dur_ms =
    Event.Span { node; trace; span; parent; name; dur_ms }
  in
  let sent block =
    Event.Block { node; phase = Event.Sent; block; peer = Some peer }
  in
  let rows =
    Peer_engine.
      [
        ( Session_started { dst = 7; generation = 3 }, None,
          [ Event.Session_started { node; peer; generation = 3 } ] );
        ( Request_resent { dst = 7; generation = 3; attempt = 2 }, None,
          [ Event.Request_resent { node; peer; generation = 3; attempt = 2 } ]
        );
        (completed, None, [ completed_ev ]);
        ( completed, ctx,
          [ completed_ev;
            span "37b7ceb30ef0d0d0" (Some root) "session.exchange" 12.5 ] );
        ( Session_aborted { dst = 7; generation = 4; reason = Stalled }, None,
          [ Event.Session_aborted
              { node; peer; generation = 4; reason = Event.Stalled } ] );
        ( Session_aborted { dst = 7; generation = 5; reason = Timed_out }, ctx,
          [ Event.Session_aborted
              { node; peer; generation = 5; reason = Event.Timed_out } ] );
        (Request_suppressed { src = 7 }, None, []);
        (Reply_ignored { from = 7 }, None, []);
        (Decode_failed { from = 7 }, None, []);
        ( Blocks_served { dst = 7; blocks = [ a; b ] }, None,
          [ sent a; sent b ] );
        ( Redundant_received { from = 7; blocks = [ c; a ] }, None,
          [ Event.Block_redundant { node; block = c; peer = Some peer };
            Event.Block_redundant { node; block = a; peer = Some peer } ] );
        ( Peer_advertised { from = 7; hashes = [ a; b; c ] }, None,
          [ Event.Blocks_advertised { node; peer; hashes = 3 } ] );
        ( Trace_context_sent { dst = 7; generation = 3; trace; span = root },
          None, [ span root None "session.announce" 0. ] );
        ( Trace_context_received { from = 7; trace; span = root }, ctx,
          [ span "081c9ebcb0cb427e" (Some root) "session.serve" 0. ] );
      ]
  in
  List.iter
    (fun (ev, exchange, expected) ->
      let got =
        Engine_events.of_event ~node ~peer:(Printf.sprintf "peer-%d") ?exchange
          ev
      in
      check_b
        (Fmt.str "%a%s" Peer_engine.pp_event ev
           (if Option.is_some exchange then " ~exchange" else ""))
        true
        (List.equal Event.equal expected got))
    rows;
  check_i "one row per engine trace constructor" 12
    (List.length
       (List.sort_uniq Int.compare
          (List.map (fun (ev, _, _) -> engine_event_tag ev) rows)))

(* One delivery from "peer-7" to node "ab12cd34", through a real batch
   intake, and one local creation. A delivery journals every block's
   [Received] in delivery order, then [Validated] and [Delivered] per
   block made resident, in commit order, plus one [Witnessed] per
   parent of an empty block, naming its creator. The batch: D, whose
   parent A arrives after it (drained by the same delivery); A
   (accepted); X, whose parent is never delivered (buffered); W, an
   empty child of A (a witness); the genesis again (duplicate); and R,
   stamped a minute ahead (rejected). *)
let delivery_golden () =
  let owner = V.Signer.oracle ~signature_size:64 ~id:"golden-owner" () in
  let cert = V.Certificate.self_signed ~signer:owner ~role:"ca" in
  let creator = cert.V.Certificate.user_id in
  let ts ms = V.Timestamp.of_ms (Int64.of_int ms) in
  let spec = Vegvisir_crdt.Schema.(spec Gset Vegvisir_crdt.Value.T_string) in
  let g =
    V.Node.genesis_block ~signer:owner ~cert ~timestamp:(ts 0)
      ~extra:[ V.Transaction.create_crdt ~name:"log" spec ] ()
  in
  let mk t (parents : V.Block.t list) entries =
    V.Block.create ~signer:owner ~creator ~timestamp:(ts t)
      ~parents:(List.map (fun (p : V.Block.t) -> p.V.Block.hash) parents)
      (List.map
         (fun e -> V.Transaction.make ~crdt:"log" ~op:"add" [ Vegvisir_crdt.Value.String e ])
         entries)
  in
  let a = mk 10 [ g ] [ "a" ] in
  let d = mk 20 [ a ] [ "d" ] in
  let y = mk 30 [ g ] [ "y" ] in
  let x = mk 40 [ y ] [ "x" ] in
  let w = mk 50 [ a ] [] in
  let r = mk 61_000 [ g ] [ "r" ] in
  let n = V.Node.create ~signer:owner ~cert () in
  ignore (V.Node.receive n ~now:(ts 1) g : V.Node.receive_result);
  let node = "ab12cd34" and peer = "peer-7" in
  let batch = [ d; a; x; w; g; r ] in
  let made = V.Node.intake n ~now:(ts 100) batch in
  let journal =
    Engine_events.received ~node ~peer batch
    @ Engine_events.made_resident ~node ~peer made
  in
  let ev phase (b : V.Block.t) =
    Event.Block { node; phase; block = b.V.Block.hash; peer = Some peer }
  in
  let witnessed (b : V.Block.t) =
    Event.Block
      { node; phase = Event.Witnessed; block = b.V.Block.hash;
        peer = Some (V.Hash_id.short creator) }
  in
  let rows =
    [
      ("every delivered block, in delivery order",
        List.map (ev Event.Received) batch);
      ("accepted", [ ev Event.Validated a; ev Event.Delivered a ]);
      ("drained by the same delivery", [ ev Event.Validated d; ev Event.Delivered d ]);
      ( "empty (witness) block",
        [ ev Event.Validated w; ev Event.Delivered w; witnessed a ] );
      ("buffered, duplicate and rejected: received only", []);
    ]
  in
  check_i "intake made A, D and W resident" 3 (List.length made);
  let rec check_rows journal = function
    | [] -> check_b "nothing else journaled" true (journal = [])
    | (name, expected) :: rest ->
      let k = List.length expected in
      let got = List.filteri (fun i _ -> i < k) journal in
      check_b name true (List.equal Event.equal expected got);
      check_rows (List.filteri (fun i _ -> i >= k) journal) rest
  in
  check_rows journal rows;
  check_b "a local creation: created, then its parents witnessed" true
    (List.equal Event.equal
       [ Event.Block { node; phase = Event.Created; block = w.V.Block.hash; peer = None };
         witnessed a ]
       (Engine_events.created ~node w))

(* With sampling on, a simulated fleet's initiators announce their trace
   context over the wire and responders stitch under it: both sides of a
   session share one trace id, and the serve span parents on the
   announced span. Every completed session closes with a timed exchange
   span under its own announcement, as a daemon's does. *)
let fleet_trace_sampling () =
  let run seed =
    let obs = Context.create () in
    let coll = Span.Collector.create ~capacity:4096 in
    Context.attach obs (Span.Collector.sink coll);
    let fleet =
      Net.Scenario.build ~seed ~obs ~trace_sample:1.0
        ~topo:(Net.Topology.clique ~n:2) ()
    in
    (match
       ( Net.Gossip.append fleet.Net.Scenario.gossip 0 [],
         Net.Gossip.append fleet.Net.Scenario.gossip 1 [] )
     with
    | Ok _, Ok _ -> ()
    | (Error _, _ | _, Error _) -> Alcotest.fail "fixture append failed");
    Net.Scenario.run fleet ~until_ms:30_000.;
    check_i "ring kept every span" 0 (Span.Collector.dropped coll);
    ( Span.Collector.spans coll,
      Registry.total (Context.registry obs) "session.completed" )
  in
  let spans, completed = run 404L in
  let named n = List.filter (fun s -> String.equal s.Span.name n) spans in
  let announces = named "session.announce" in
  let serves = named "session.serve" in
  let exchanges = named "session.exchange" in
  check_b "announce spans emitted" true (announces <> []);
  check_b "serve spans emitted" true (serves <> []);
  List.iter
    (fun (sv : Span.t) ->
      match
        List.find_opt
          (fun (an : Span.t) -> String.equal an.Span.trace sv.Span.trace)
          announces
      with
      | None -> Alcotest.fail "serve span without a matching announce"
      | Some an ->
        check_b "stitch crosses nodes" true
          (not (String.equal an.Span.node sv.Span.node));
        check_s "serve parents on the announced span" an.Span.span
          (Option.get sv.Span.parent))
    serves;
  check_b "sessions completed" true (completed > 0);
  check_i "one exchange span per completed session" completed
    (List.length exchanges);
  List.iter
    (fun (ex : Span.t) ->
      check_b "exchange parents on its node's announce" true
        (List.exists
           (fun (an : Span.t) ->
             String.equal an.Span.trace ex.Span.trace
             && String.equal an.Span.node ex.Span.node
             && Some an.Span.span = ex.Span.parent)
           announces))
    exchanges;
  (* Ids are hash-derived, never random: the same seed reproduces the
     span stream byte for byte. *)
  check_s "same seed, identical span ids" (Span.render_json spans)
    (Span.render_json (fst (run 404L)));
  check_b "sampling off emits no session spans" true
    (let obs = Context.create () in
     let coll = Span.Collector.create ~capacity:4096 in
     Context.attach obs (Span.Collector.sink coll);
     let fleet =
       Net.Scenario.build ~seed:404L ~obs ~topo:(Net.Topology.clique ~n:2) ()
     in
     Net.Scenario.run fleet ~until_ms:10_000.;
     List.for_all
       (fun (s : Span.t) ->
         not
           (String.equal s.Span.name "session.announce"
           || String.equal s.Span.name "session.serve"
           || String.equal s.Span.name "session.exchange"))
       (Span.Collector.spans coll))

let same_seed_identical_trace () =
  let run () =
    let buf = Buffer.create 4096 in
    ignore (run_fleet ~jsonl_into:buf ~seed:77L 20_000.);
    Buffer.contents buf
  in
  let a = run () and b = run () in
  check_b "trace non-empty" true (String.length a > 0);
  check_s "byte-identical JSONL" a b;
  let c =
    let buf = Buffer.create 4096 in
    ignore (run_fleet ~jsonl_into:buf ~seed:78L 20_000.);
    Buffer.contents buf
  in
  check_b "different seed differs" true (not (String.equal a c))

(* ------------------------------------------------------------------ *)
(* Monitor: streaming derived health metrics                            *)

let deliver ~node b = Event.Block { node; phase = Event.Delivered; block = b; peer = None }
let create_ev ~node b = Event.Block { node; phase = Event.Created; block = b; peer = None }

let monitor_convergence_and_lag () =
  let m = Monitor.create ~nodes:[ "0"; "1" ] () in
  let b = h "conv-a" in
  check_b "empty fleet is converged" true (Monitor.converged m);
  Monitor.observe m ~ts:10. (create_ev ~node:"0" b);
  check_b "one holder of two" false (Monitor.converged m);
  check_i "lagging" 1 (Monitor.lagging m);
  Monitor.mark m ~ts:10.;
  check_i "mark pending" 1 (Monitor.pending_marks m);
  Monitor.observe m ~ts:250. (deliver ~node:"1" b);
  check_b "all hold" true (Monitor.converged m);
  check_f "lag resolved" 240. (Option.get (Monitor.last_lag m));
  check_i "no pending" 0 (Monitor.pending_marks m);
  check_f "converged_at" 250. (Option.get (Monitor.converged_at m));
  (* A mark on an already-converged fleet resolves immediately to 0. *)
  Monitor.mark m ~ts:300.;
  check_f "converged mark is zero lag" 0. (Option.get (Monitor.last_lag m));
  check_i "two lags total" 2 (List.length (Monitor.lags m))

let monitor_partition_heal_automark () =
  let m = Monitor.create ~nodes:[ "0"; "1" ] () in
  let b = h "heal-a" in
  Monitor.observe m ~ts:5. (create_ev ~node:"0" b);
  Monitor.observe m ~ts:10. (Event.Partition_changed { groups = Some [ 0; 1 ] });
  check_b "partition live" true (Monitor.partition m = Some [ 0; 1 ]);
  check_i "one change" 1 (Monitor.partition_changes m);
  (* Split fleet: each node is its own group, so divergence is per side. *)
  Alcotest.(check (list (pair int int)))
    "split divergence" [ (0, 0); (1, 0) ] (Monitor.divergence m);
  Monitor.observe m ~ts:100. (Event.Partition_changed { groups = None });
  check_b "healed" true (Monitor.partition m = None);
  check_i "heal auto-marks" 1 (Monitor.pending_marks m);
  Alcotest.(check (list (pair int int)))
    "whole-fleet divergence" [ (0, 1) ] (Monitor.divergence m);
  Monitor.observe m ~ts:150. (deliver ~node:"1" b);
  check_f "heal-to-convergence lag" 50. (Option.get (Monitor.last_lag m))

let monitor_gossip_and_witness () =
  let m = Monitor.create ~nodes:[ "0"; "1"; "2" ] () in
  check_i "majority quorum" 2 (Monitor.quorum m);
  let b = h "wit-a" in
  Monitor.observe m ~ts:0. (create_ev ~node:"0" b);
  Monitor.observe m ~ts:20. (deliver ~node:"1" b);
  Monitor.observe m ~ts:25.
    (Event.Block_redundant { node = "1"; block = b; peer = Some "0" });
  Monitor.observe m ~ts:30. (deliver ~node:"2" b);
  check_i "useful" 2 (Monitor.gossip_useful m);
  check_i "redundant" 1 (Monitor.gossip_redundant m);
  let witness ~ts creator =
    Monitor.observe m ~ts
      (Event.Block { node = "0"; phase = Event.Witnessed; block = b; peer = Some creator })
  in
  witness ~ts:40. "w1";
  witness ~ts:50. "w1";
  (* same witness twice: not a second distinct witness *)
  check_b "quorum unmet" true (Monitor.quorum_latencies m = []);
  witness ~ts:70. "w2";
  Alcotest.(check (list (float 1e-9)))
    "quorum latency" [ 70. ] (Monitor.quorum_latencies m)

let monitor_divergence_sampling () =
  let m = Monitor.create ~every:100. ~nodes:[ "0"; "1" ] () in
  let b0 = h "s-0" and b1 = h "s-1" in
  Monitor.observe m ~ts:10. (create_ev ~node:"0" b0);
  check_b "no boundary crossed yet" true (Monitor.samples m = []);
  Monitor.observe m ~ts:150. (create_ev ~node:"0" b1);
  Monitor.observe m ~ts:250. (deliver ~node:"1" b0);
  Monitor.observe m ~ts:460. (deliver ~node:"1" b1);
  match Monitor.samples m with
  | [ s1; s2; s3 ] ->
    (* Each sample is stamped with the last crossed tick boundary and
       carries the divergence *before* the event that crossed it. *)
    check_f "tick 100" 100. s1.Monitor.ts;
    Alcotest.(check (list (pair int int))) "one lagging" [ (0, 1) ] s1.Monitor.groups;
    check_f "tick 200" 200. s2.Monitor.ts;
    Alcotest.(check (list (pair int int))) "two lagging" [ (0, 2) ] s2.Monitor.groups;
    check_f "tick 400 (skips empty gaps)" 400. s3.Monitor.ts;
    Alcotest.(check (list (pair int int))) "one left" [ (0, 1) ] s3.Monitor.groups
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l)

(* Property: the monitor's streaming convergence lag equals an oracle
   that recomputes holdings sets from scratch at every step. *)
let monitor_lag_matches_oracle =
  QCheck.Test.make ~count:200 ~name:"monitor lag = oracle recomputation"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (pair (int_bound 4) (int_bound 1)))
        small_nat)
    (fun (ops, mark_at) ->
      QCheck.assume (ops <> []);
      let blocks = Array.init 5 (fun i -> h (Printf.sprintf "q-%d" i)) in
      let ts_of i = float_of_int (i + 1) *. 10. in
      let mark_at = mark_at mod List.length ops in
      let mark_ts = ts_of mark_at in
      (* Oracle: replay prefixes with plain per-node block sets. *)
      let module S = Set.Make (String) in
      let held = [| S.empty; S.empty |] in
      let converged_after = Array.make (List.length ops) true in
      List.iteri
        (fun i (b, node) ->
          held.(node) <- S.add (V.Hash_id.to_hex blocks.(b)) held.(node);
          converged_after.(i) <- S.equal held.(0) held.(1))
        ops;
      let oracle =
        if converged_after.(mark_at) then Some 0.
        else begin
          let rec find j =
            if j >= Array.length converged_after then None
            else if converged_after.(j) then Some (ts_of j -. mark_ts)
            else find (j + 1)
          in
          find (mark_at + 1)
        end
      in
      let m = Monitor.create ~nodes:[ "0"; "1" ] () in
      List.iteri
        (fun i (b, node) ->
          Monitor.observe m ~ts:(ts_of i)
            (deliver ~node:(string_of_int node) blocks.(b));
          if i = mark_at then Monitor.mark m ~ts:mark_ts)
        ops;
      match (oracle, Monitor.last_lag m) with
      | None, None -> Monitor.pending_marks m = 1
      | Some a, Some b -> Float.equal a b && Monitor.pending_marks m = 0
      | None, Some _ | Some _, None -> false)

(* ------------------------------------------------------------------ *)
(* Health report + Prometheus exposition                                *)

let run_health ~seed =
  let monitor = Monitor.create ~every:1_000. ~nodes:[ "0"; "1" ] () in
  let fleet = run_fleet ~attach:(Monitor.sink monitor) ~seed 30_000. in
  (fleet, monitor)

let health_report_byte_stable () =
  let render seed =
    let _fleet, monitor = run_health ~seed in
    Health.report monitor
  in
  let a = render 909L and b = render 909L in
  check_b "report non-empty" true (String.length a > 0);
  check_s "same seed, identical report" a b;
  check_b "mentions gossip" true (contains a "gossip ");
  check_b "mentions witness" true (contains a "witness ");
  check_b "different seed differs" true (not (String.equal a (render 910L)))

let prometheus_byte_stable () =
  let render seed =
    let fleet, monitor = run_health ~seed in
    let reg = Context.registry fleet.Net.Scenario.obs in
    Health.export monitor reg;
    Registry.to_prometheus (Registry.snapshot reg)
  in
  let a = render 909L and b = render 909L in
  check_s "same seed, identical exposition" a b;
  check_b "health gauges exported" true
    (contains a "vegvisir_health_converged");
  check_b "type lines present" true (contains a "# TYPE vegvisir_")

let prometheus_rendering () =
  let r = Registry.create () in
  Registry.add (Registry.counter r ~node:"0" "gossip.blocks") 3;
  Registry.add (Registry.counter r ~node:"1" "gossip.blocks") 1;
  Registry.set (Registry.gauge r "health.converged") 1.;
  let hst = Registry.histogram r ~buckets:[ 10.; 20. ] "lat.ms" in
  List.iter (Registry.observe hst) [ 5.; 15.; 100. ];
  check_s "prometheus text"
    (String.concat "\n"
       [
         "# TYPE vegvisir_gossip_blocks counter";
         "vegvisir_gossip_blocks{node=\"0\"} 3";
         "vegvisir_gossip_blocks{node=\"1\"} 1";
         "# TYPE vegvisir_health_converged gauge";
         "vegvisir_health_converged 1.0";
         "# TYPE vegvisir_lat_ms histogram";
         "vegvisir_lat_ms_bucket{le=\"10.0\"} 1";
         "vegvisir_lat_ms_bucket{le=\"20.0\"} 2";
         "vegvisir_lat_ms_bucket{le=\"+Inf\"} 3";
         "vegvisir_lat_ms_sum 120.0";
         "vegvisir_lat_ms_count 3";
         "";
       ])
    (Registry.to_prometheus (Registry.snapshot r))

(* ------------------------------------------------------------------ *)
(* Per-peer scoreboard                                                  *)

let sb_deliver ?peer t ~ts name =
  Scoreboard.observe t ~ts
    (Event.Block { node = Scoreboard.me t; phase = Event.Delivered; block = h name; peer })

let scoreboard_divergence_lifecycle () =
  let t = Scoreboard.create ~me:"0" () in
  (* Two local blocks before peer a is ever heard from: a row-less peer
     is maximally diverged. *)
  sb_deliver t ~ts:1. "b1";
  sb_deliver t ~ts:2. "b2";
  check_i "local blocks counted" 2 (Scoreboard.local_blocks t);
  check_b "no row before contact" true (Scoreboard.row t "a" = None);
  (* A clean exchange acks everything held so far. *)
  Scoreboard.observe t ~ts:3.
    (Event.Sync_completed { node = "0"; peer = "a"; pulled = 2; served = 0 });
  let r = Option.get (Scoreboard.row t "a") in
  check_i "acked down to zero" 0 r.Scoreboard.divergence;
  check_i "exchange counted" 1 r.Scoreboard.exchanges;
  (* New blocks reopen the gap; re-delivering b1 does not (held is a set). *)
  sb_deliver t ~ts:4. "b3";
  sb_deliver t ~ts:5. "b1";
  check_i "divergence = new blocks only" 1
    (Option.get (Scoreboard.row t "a")).Scoreboard.divergence;
  (* Attribution: delivered-from-peer is useful, redundant is redundant. *)
  sb_deliver t ~ts:6. ~peer:"a" "b4";
  Scoreboard.observe t ~ts:7.
    (Event.Block_redundant { node = "0"; block = h "b1"; peer = Some "a" });
  Scoreboard.observe t ~ts:8.
    (Event.Session_completed
       { node = "0"; peer = "a"; generation = 1; blocks = 1; duration_ms = 12.5 });
  Scoreboard.observe t ~ts:9.
    (Event.Session_aborted
       { node = "0"; peer = "a"; generation = 2; reason = Event.Stalled });
  (* Another node's events never touch my scoreboard. *)
  Scoreboard.observe t ~ts:10.
    (Event.Sync_completed { node = "9"; peer = "a"; pulled = 5; served = 5 });
  let r = Option.get (Scoreboard.row t "a") in
  check_i "useful" 1 r.Scoreboard.useful;
  check_i "redundant" 1 r.Scoreboard.redundant;
  check_i "failures" 1 r.Scoreboard.failures;
  check_i "foreign events ignored" 1 r.Scoreboard.exchanges;
  Alcotest.(check (list (float 1e-9))) "latencies" [ 12.5 ] r.Scoreboard.latencies;
  check_f "last contact advances" 9. (Option.get r.Scoreboard.last_contact)

let scoreboard_priority_order () =
  let t = Scoreboard.create ~me:"0" () in
  sb_deliver t ~ts:1. "b1";
  sb_deliver t ~ts:2. "b2";
  (* a: fully acked at ts 3 (divergence 2 after b3/b4 land).
     b: fully acked at ts 6 (divergence 0). never-seen c and d stay
     maximally diverged (3). *)
  Scoreboard.observe t ~ts:3.
    (Event.Sync_completed { node = "0"; peer = "a"; pulled = 0; served = 0 });
  sb_deliver t ~ts:4. "b3";
  Scoreboard.observe t ~ts:6.
    (Event.Sync_completed { node = "0"; peer = "b"; pulled = 0; served = 0 });
  Alcotest.(check (list string))
    "diverged first, then label ties"
    [ "c"; "d"; "a"; "b" ]
    (Scoreboard.priority t [ "b"; "d"; "a"; "c" ]);
  (* Contact breaks divergence ties: a touched later than b after both
     fully acked. *)
  Scoreboard.observe t ~ts:7.
    (Event.Sync_completed { node = "0"; peer = "a"; pulled = 0; served = 0 });
  Alcotest.(check (list string))
    "longest-unseen first on equal divergence"
    [ "b"; "a" ]
    (Scoreboard.priority t [ "a"; "b" ]);
  check_b "pure: reordering candidates only permutes" true
    (Scoreboard.priority t [ "b"; "a" ] = Scoreboard.priority t [ "a"; "b" ])

let scoreboard_renderings_stable () =
  let build () =
    let t = Scoreboard.create ~me:"0" () in
    sb_deliver t ~ts:1. "b1";
    Scoreboard.observe t ~ts:2.
      (Event.Sync_completed { node = "0"; peer = "p"; pulled = 1; served = 0 });
    Scoreboard.observe t ~ts:3.
      (Event.Session_completed
         { node = "0"; peer = "p"; generation = 1; blocks = 1; duration_ms = 4.25 });
    sb_deliver t ~ts:4. "b2";
    t
  in
  let a = build () and b = build () in
  check_s "report byte-stable" (Scoreboard.report a) (Scoreboard.report b);
  check_s "json byte-stable" (Scoreboard.to_json a) (Scoreboard.to_json b);
  check_b "report shows divergence" true
    (contains (Scoreboard.report a) "peer p divergence=1");
  check_b "json rows grep-able" true
    (contains (Scoreboard.to_json a) {|{"peer":"p","divergence":1|});
  check_b "json carries latency" true
    (contains (Scoreboard.to_json a) {|"latency_ms":{"count":1,"mean":4.25|})

let scoreboard_export_prometheus () =
  let t = Scoreboard.create ~me:"0" () in
  sb_deliver t ~ts:1. "b1";
  Scoreboard.observe t ~ts:2.
    (Event.Session_completed
       { node = "0"; peer = "p"; generation = 1; blocks = 1; duration_ms = 3. });
  let reg = Registry.create () in
  Scoreboard.export t reg;
  let text = Registry.to_prometheus (Registry.snapshot reg) in
  check_b "divergence gauge" true
    (contains text "vegvisir_peer_divergence{node=\"p\"} 1.0");
  check_b "latency histogram" true
    (contains text "vegvisir_peer_exchange_ms_count{node=\"p\"} 1")

(* ------------------------------------------------------------------ *)
(* Metrics satellite: nearest-rank percentile fix + merge               *)

let metrics_percentile_nearest_rank () =
  let s = Net.Metrics.series "p" in
  for i = 1 to 20 do
    Net.Metrics.record s ~t:(float_of_int i) (float_of_int i)
  done;
  (* 0.95 *. 20. = 19.000000000000004: ceil must not bump the rank. *)
  check_f "p95 of 1..20" 19. (Net.Metrics.percentile s 0.95);
  check_f "p100" 20. (Net.Metrics.percentile s 1.0);
  check_f "p0 clamps to first" 1. (Net.Metrics.percentile s 0.0);
  check_f "median" 10. (Net.Metrics.percentile s 0.5);
  check_f "empty" 0. (Net.Metrics.percentile (Net.Metrics.series "e") 0.5)

let metrics_merge () =
  let a = Net.Metrics.series "a" and b = Net.Metrics.series "b" in
  Net.Metrics.record a ~t:1. 10.;
  Net.Metrics.record a ~t:3. 30.;
  Net.Metrics.record b ~t:2. 20.;
  Net.Metrics.record b ~t:3. 31.;
  let m = Net.Metrics.merge a b in
  check_s "named after first" "a" (Net.Metrics.name m);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "time order, stable on ties"
    [ (1., 10.); (2., 20.); (3., 30.); (3., 31.) ]
    (Net.Metrics.points m);
  check_i "inputs untouched" 2 (Net.Metrics.count a)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "event",
        [
          Alcotest.test_case "jsonl round-trip (all variants)" `Quick
            jsonl_roundtrip;
          QCheck_alcotest.to_alcotest codec_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest journal_batch_qcheck;
          Alcotest.test_case "rejects garbage" `Quick jsonl_rejects_garbage;
          Alcotest.test_case "float codec exact" `Quick json_float_exact;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "ring keeps most recent" `Quick
            ring_keeps_most_recent;
          Alcotest.test_case "jsonl sink writes lines" `Quick
            jsonl_sink_writes_lines;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters + total" `Quick registry_counters;
          Alcotest.test_case "histogram boundaries" `Quick histogram_boundaries;
          Alcotest.test_case "snapshot order + aggregate" `Quick
            snapshot_order_and_aggregate;
        ] );
      ( "trace",
        [ Alcotest.test_case "span queries" `Quick trace_queries ] );
      ( "span",
        [
          Alcotest.test_case "deterministic identity" `Quick
            span_identity_deterministic;
          Alcotest.test_case "event fold" `Quick span_of_event_fold;
          Alcotest.test_case "render_json shape" `Quick span_render_json_shape;
          Alcotest.test_case "chrome export" `Quick span_chrome_export;
          Alcotest.test_case "chrome ids by first appearance" `Quick
            span_chrome_first_appearance;
          QCheck_alcotest.to_alcotest span_collector_matches_oracle;
        ] );
      ( "flight",
        [ Alcotest.test_case "dump format" `Quick flight_dump_format ] );
      (* Suite names stay within 10 characters: alcotest widens its name
         column to the longest one and truncates long case names to fit. *)
      ( "eng-events",
        [
          Alcotest.test_case "golden table, every trace" `Quick
            engine_events_golden;
          Alcotest.test_case "golden table, a delivery" `Quick delivery_golden;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "two-node span stitching" `Quick
            two_node_stitching;
          Alcotest.test_case "trace sampling stitches sessions" `Quick
            fleet_trace_sampling;
          Alcotest.test_case "same seed, identical trace bytes" `Quick
            same_seed_identical_trace;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "convergence + lag" `Quick
            monitor_convergence_and_lag;
          Alcotest.test_case "partition heal auto-mark" `Quick
            monitor_partition_heal_automark;
          Alcotest.test_case "gossip + witness quorum" `Quick
            monitor_gossip_and_witness;
          Alcotest.test_case "divergence sampling" `Quick
            monitor_divergence_sampling;
          QCheck_alcotest.to_alcotest monitor_lag_matches_oracle;
        ] );
      ( "health",
        [
          Alcotest.test_case "report byte-stable" `Quick
            health_report_byte_stable;
          Alcotest.test_case "prometheus byte-stable" `Quick
            prometheus_byte_stable;
          Alcotest.test_case "prometheus rendering" `Quick prometheus_rendering;
        ] );
      ( "scoreboard",
        [
          Alcotest.test_case "divergence lifecycle" `Quick
            scoreboard_divergence_lifecycle;
          Alcotest.test_case "priority order" `Quick scoreboard_priority_order;
          Alcotest.test_case "renderings byte-stable" `Quick
            scoreboard_renderings_stable;
          Alcotest.test_case "prometheus export" `Quick
            scoreboard_export_prometheus;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile nearest-rank" `Quick
            metrics_percentile_nearest_rank;
          Alcotest.test_case "merge" `Quick metrics_merge;
        ] );
    ]
