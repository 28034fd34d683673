(** Minimal blocking HTTP GET client for the daemon's own endpoints.

    The {!Event_loop} HTTP listener answers every connection with one
    [Connection: close] response, so a probe is write-request /
    read-to-EOF / split-at-blank-line ({!Http.request},
    {!Http.parse_response}) — no keep-alive, no chunked encoding, no
    redirects. [vegvisir-cli health --connect] polls [/health] through
    this, and the soak tests scrape [/metrics] with it. *)

val get :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  path:string ->
  unit ->
  (string, string) result
(** Fetch [path] and return the response body on a 200, [Error] with
    the status line (or transport failure) otherwise. [timeout_s]
    (default 5) bounds the connect and the read separately. *)
