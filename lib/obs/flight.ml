(* The always-on flight recorder: a bounded ring of the most recent
   events that every daemon keeps regardless of journaling flags, plus a
   one-shot JSONL dump format pairing those events with a registry
   snapshot. Recording fills one ring slot and allocates nothing; the
   price is only paid at dump time (SIGQUIT, a slow-iteration anomaly,
   or GET /debug/flight). *)

type t = { ring : Sink.Ring.t; capacity : int }

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  { ring = Sink.Ring.create ~capacity; capacity }

let sink t = Sink.Ring.sink t.ring
let record t ~ts ev = Sink.Ring.record t.ring ~ts ev
let recorded t = Sink.Ring.recorded t.ring
let dropped t = Sink.Ring.dropped t.ring
let events t = Sink.Ring.events t.ring
let capacity t = t.capacity

(* Registry.render_json is a pretty-printed multi-line array; a JSONL
   dump needs it on one line. The renderer never emits newlines inside
   string literals (names and node ids are metric identifiers), so
   stripping every '\n' is a faithful re-layout, not a lossy edit. *)
let one_line s = String.concat "" (String.split_on_char '\n' s)

(* The dump is JSONL so the standard journal tooling (vv trace, replay)
   can read the middle lines unchanged: a header object describing the
   ring, one Event.to_json line per retained event (oldest first), and a
   trailing registry snapshot. *)
let dump t ~snapshot =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"flight\":{\"capacity\":%d,\"recorded\":%d,\"dropped\":%d}}\n"
       t.capacity (recorded t) (dropped t));
  List.iter
    (fun (ts, ev) ->
      Event.to_json_buf b ~ts ev;
      Buffer.add_char b '\n')
    (events t);
  Buffer.add_string b "{\"registry\":";
  Buffer.add_string b (one_line (Registry.render_json snapshot));
  Buffer.add_string b "}\n";
  Buffer.contents b
