(* The Prometheus scrape surface — now a thin adapter over Event_loop.
   A Metrics_server.t is a store-less loop with only the /metrics
   listener installed; the loop does the HTTP work (incremental reads
   and writes, so a slow or dribbling scraper cannot wedge anything) and
   this module restores the old accept-answer-close call surface.
   The daemon does not use this wrapper: it installs a metrics listener
   on its own loop, where scrapes interleave with live sessions. *)

type t = { loop : Event_loop.t }

let ( let* ) = Result.bind

let start ?host ~port () =
  let loop = Event_loop.create () in
  let* (_ : int) = Event_loop.listen_metrics ?host loop ~port () in
  Ok { loop }

let port t =
  match Event_loop.metrics_port t.loop with Some p -> p | None -> 0

let stop t = Event_loop.shutdown t.loop

let handle_one ?timeout_s t ~render =
  Event_loop.set_render t.loop render;
  let base = (Event_loop.stats t.loop).Event_loop.http_closed in
  let timed_out = ref false in
  (match timeout_s with
  | Some s ->
    Event_loop.after t.loop ~ms:(s *. 1000.) (fun () -> timed_out := true)
  | None -> ());
  let* () =
    Event_loop.run t.loop ~until:(fun (st : Event_loop.stats) ->
        st.Event_loop.http_closed > base || !timed_out)
  in
  if (Event_loop.stats t.loop).Event_loop.http_closed > base then Ok ()
  else Error "timed out waiting for a scrape"

let request_stop t = Event_loop.request_stop t.loop

(* Answer every scrape until {!request_stop} (the CLI routes
   SIGINT/SIGTERM there). *)
let drive t ~render =
  Event_loop.set_render t.loop render;
  let* () = Event_loop.run t.loop in
  Ok (Event_loop.stats t.loop).Event_loop.http_closed
