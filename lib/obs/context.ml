(* One observability context per run: the bus and the registry wired
   together. Creating a context attaches one internal sink, a stats
   deriver that turns every event into standard counter updates, so
   instrumented layers only ever emit events. The context keeps no
   per-event history: a long-lived daemon emits into one for its whole
   life. *)

type t = { bus : Bus.t; registry : Registry.t }

let count reg ~node name = Registry.incr (Registry.counter reg ~node name)
let count_n reg ~node name n = Registry.add (Registry.counter reg ~node name) n

let derive reg ev =
  match (ev : Event.t) with
  | Event.Block { node; phase; _ } ->
    count reg ~node ("block." ^ Event.phase_to_string phase)
  | Event.Block_redundant { node; _ } ->
    count reg ~node "gossip.blocks_redundant"
  | Event.Blocks_advertised { node; hashes; _ } ->
    count_n reg ~node "gossip.blocks_advertised" hashes
  | Event.Net_sent { src; _ } -> count reg ~node:src "net.sent"
  | Event.Net_delivered { dst; _ } -> count reg ~node:dst "net.delivered"
  | Event.Net_dropped { src; _ } -> count reg ~node:src "net.dropped"
  | Event.Partition_changed _ ->
    Registry.incr (Registry.counter reg "net.partition_changes")
  | Event.Session_started { node; _ } -> count reg ~node "session.started"
  | Event.Session_completed { node; blocks; _ } ->
    count reg ~node "session.completed";
    count_n reg ~node "session.blocks" blocks
  | Event.Session_aborted { node; _ } -> count reg ~node "session.aborted"
  | Event.Request_resent { node; _ } -> count reg ~node "session.resent"
  | Event.Leader_elected { node; _ } -> count reg ~node "cluster.elections"
  | Event.Block_archived { node; _ } -> count reg ~node "cluster.archived"
  | Event.Store_loaded { node; _ } -> count reg ~node "store.loaded"
  | Event.Store_saved { node; _ } -> count reg ~node "store.saved"
  | Event.Sync_started { node; _ } -> count reg ~node "sync.started"
  | Event.Sync_completed { node; pulled; served; _ } ->
    count reg ~node "sync.completed";
    count_n reg ~node "sync.pulled" pulled;
    count_n reg ~node "sync.served" served
  | Event.Recovery_completed { node; blocks; _ } ->
    count reg ~node "store.recovered";
    count_n reg ~node "store.recovered_blocks" blocks
  | Event.Span { node; _ } -> count reg ~node "span.finished"

let create () =
  let bus = Bus.create () in
  let registry = Registry.create () in
  Bus.attach bus (Sink.make (fun ~ts:_ ev -> derive registry ev));
  { bus; registry }

let bus t = t.bus
let registry t = t.registry
let emit t ~ts ev = Bus.emit t.bus ~ts ev
let attach t sink = Bus.attach t.bus sink
let detach t sink = Bus.detach t.bus sink
let flush t = Bus.flush t.bus
