(* One-shot blocking HTTP/1.1 GET against the daemon's metrics/health
   listener. The daemon answers every connection with exactly one
   [Connection: close] response, so the client protocol is the simplest
   possible: write the request, read to EOF, split at the blank line
   (both texts are Http's). This is the transport behind
   [vegvisir-cli health --connect] and the live-health soak test —
   deliberately not a general HTTP client. *)

let max_response_bytes = 8 * 1024 * 1024

let get ?(timeout_s = 5.) ~host ~port ~path () =
  match Unix_compat.connect ~timeout_s ~host ~port () with
  | Error e -> Error e
  | Ok conn ->
    Unix_compat.set_nonblocking conn;
    let deadline = Unix_compat.now () +. timeout_s in
    let await ~read ~write k =
      Result.bind
        (Unix_compat.await ~deadline ~timed_out:"recv_all: timed out" ~listeners:[]
           ~read ~write ())
        k
    in
    let req = Bytes.of_string (Http.request ~host ~path) in
    let buf = Bytes.create 4096 and resp = Buffer.create 1024 in
    let rec send pos =
      if pos = Bytes.length req then recv ()
      else begin
        match Unix_compat.write_nb conn req ~pos ~len:(Bytes.length req - pos) with
        | Error e -> Error e
        | Ok (`Wrote n) -> send (pos + n)
        | Ok `Would_block -> await ~read:[] ~write:[ conn ] (fun () -> send pos)
      end
    and recv () =
      if Buffer.length resp > max_response_bytes then
        Error "recv_all: response too large"
      else begin
        match Unix_compat.read_nb conn buf ~pos:0 ~len:(Bytes.length buf) with
        | Error e -> Error e
        | Ok `Eof -> Http.parse_response (Buffer.contents resp)
        | Ok (`Read n) ->
          Buffer.add_subbytes resp buf 0 n;
          recv ()
        | Ok `Would_block -> await ~read:[ conn ] ~write:[] recv
      end
    in
    let r = send 0 in
    Unix_compat.close_conn conn;
    r
