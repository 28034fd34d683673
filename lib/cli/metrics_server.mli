(** A minimal HTTP GET /metrics responder — an adapter over
    {!Event_loop} (a store-less loop with only the metrics listener).

    Serves the Prometheus text exposition
    ({!Vegvisir_obs.Registry.to_prometheus}): accept, read one request
    head (however many reads it takes), answer, close. [GET /metrics]
    (query strings allowed) gets a 200 with
    [text/plain; version=0.0.4]; other targets get a 404, unparsable
    requests a 400. No keep-alive, no TLS — a loopback scrape surface,
    not a web server. *)

type t

val start : ?host:string -> port:int -> unit -> (t, string) result
(** Bind and listen (default host 127.0.0.1; port 0 picks an ephemeral
    port). *)

val port : t -> int
val stop : t -> unit

val handle_one :
  ?timeout_s:float -> t -> render:(unit -> string) -> (unit, string) result
(** Accept and answer one connection. [render] is called per 200
    response, so every scrape sees current values. [Error] on timeout or
    socket failure; a peer that connects and leaves without a request
    still counts as handled. *)

val drive : t -> render:(unit -> string) -> (int, string) result
(** Answer scrapes on a started server until {!request_stop} (the CLI
    routes SIGINT/SIGTERM there). Returns how many were answered. The
    listener stays open; callers {!stop} it. *)

val request_stop : t -> unit
(** Make an unbounded {!drive} return after draining — safe from a
    signal handler. *)
