(** The daemon's HTTP/1.1 subset, with no socket and no clock.

    The {!Event_loop} metrics listener answers every connection with one
    [Connection: close] response, and {!Http_probe} is the client that
    reads it, so the protocol is: one request head (accumulated across
    however many reads a dribbling scraper needs, bounded at
    {!max_request_bytes}), one response, close. Both sides are here: the
    server's head accumulation, routing and response text, and the
    client's request text and response parse. What is answered is a
    function of the bytes fed in (checked by the [http] purity boundary
    in [lint-boundaries.sexp]). *)

val max_request_bytes : int
(** 16 KiB: a head still unterminated past this is a 400. *)

(** {1 Server side} *)

type target =
  | Metrics  (** [GET /metrics], with or without a query *)
  | Health  (** [GET /health], with or without a query *)
  | Spans  (** [GET /debug/spans] *)
  | Flight  (** [GET /debug/flight] *)
  | Registry  (** [GET /debug/registry] *)

type verdict =
  | Scrape of target  (** a 200; only these count as scrapes *)
  | Not_found  (** a well-formed request for anything else: 404 *)
  | Bad_request  (** a malformed request line or an oversized head: 400 *)

type head
(** A request head being accumulated. *)

val head : unit -> head

val feed : head -> Bytes.t -> pos:int -> len:int -> verdict option
(** Append one read's bytes; [Some] once the head's blank line has
    arrived (bytes after it are ignored) or the head has grown past
    {!max_request_bytes} without one. *)

val answer : verdict -> body:(target -> string) -> string
(** The whole response text: a 200 carrying [body target] with the
    target's content type, or the 404/400 text. *)

(** {1 Client side} *)

val request : host:string -> path:string -> string
(** The [GET path] request head {!Http_probe} writes. *)

val parse_response : string -> (string, string) result
(** Split a raw response into its body ([Ok]) or an error carrying the
    non-200 status line. *)
