(* The daemon's HTTP/1.1 subset, with no socket and no clock: request-head
   accumulation and routing on the server side, the request text and
   response parse on the client side (Http_probe). Every response closes
   its connection, so there is no keep-alive, chunking or redirect to
   model. *)

let max_request_bytes = 16 * 1024

type target = Metrics | Health | Spans | Flight | Registry
type verdict = Scrape of target | Not_found | Bad_request

(* Index of the blank line ending a head in [get 0 .. len - 1], scanning
   from [from]. *)
let find_blank_line get ~from ~len =
  let rec at i =
    if i + 4 > len then None
    else if
      Char.equal (get i) '\r'
      && Char.equal (get (i + 1)) '\n'
      && Char.equal (get (i + 2)) '\r'
      && Char.equal (get (i + 3)) '\n'
    then Some i
    else at (i + 1)
  in
  at (Int.max 0 from)

let target_of path =
  let path, query =
    match String.index_opt path '?' with
    | Some i -> (String.sub path 0 i, true)
    | None -> (path, false)
  in
  match path with
  | "/metrics" -> Scrape Metrics
  | "/health" -> Scrape Health
  | "/debug/spans" when not query -> Scrape Spans
  | "/debug/flight" when not query -> Scrape Flight
  | "/debug/registry" when not query -> Scrape Registry
  | _ -> Not_found

let route head =
  let line =
    match String.index_opt head '\r' with
    | Some eol -> String.sub head 0 eol
    | None -> head
  in
  match String.split_on_char ' ' line with
  | [ "GET"; path; _version ] -> target_of path
  | [ _; _; _ ] -> Not_found
  | _ -> Bad_request

type head = Buffer.t

let head () = Buffer.create 256

let feed h buf ~pos ~len =
  let scanned = Buffer.length h in
  Buffer.add_subbytes h buf pos len;
  match find_blank_line (Buffer.nth h) ~from:(scanned - 3) ~len:(Buffer.length h) with
  | Some _ -> Some (route (Buffer.contents h))
  | None -> if Buffer.length h > max_request_bytes then Some Bad_request else None

let response ~content_type ~status ~body =
  String.concat "\r\n"
    [
      "HTTP/1.1 " ^ status;
      "Content-Type: " ^ content_type;
      "Content-Length: " ^ string_of_int (String.length body);
      "Connection: close";
      "";
      body;
    ]

let content_type = function
  | Metrics -> "text/plain; version=0.0.4; charset=utf-8"
  | Health | Spans | Registry -> "application/json"
  | Flight -> "application/x-ndjson"

let answer verdict ~body =
  let text = content_type Metrics in
  match verdict with
  | Scrape target ->
    response ~content_type:(content_type target) ~status:"200 OK" ~body:(body target)
  | Not_found -> response ~content_type:text ~status:"404 Not Found" ~body:"not found\n"
  | Bad_request ->
    response ~content_type:text ~status:"400 Bad Request" ~body:"bad request\n"

let request ~host ~path =
  "GET " ^ path ^ " HTTP/1.1\r\nHost: " ^ host ^ "\r\nConnection: close\r\n\r\n"

let parse_response raw =
  match find_blank_line (String.get raw) ~from:0 ~len:(String.length raw) with
  | None -> Error "malformed HTTP response: no header terminator"
  | Some i ->
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let status_line =
      match String.index_opt raw '\r' with Some j -> String.sub raw 0 j | None -> raw
    in
    (* "HTTP/1.1 200 OK" — the code sits between the first two spaces. *)
    (match String.index_opt status_line ' ' with
    | Some sp
      when String.length status_line >= sp + 4
           && String.equal (String.sub status_line (sp + 1) 3) "200" ->
      Ok body
    | Some _ | None -> Error ("HTTP error: " ^ status_line))
