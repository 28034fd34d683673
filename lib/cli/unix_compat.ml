(* Wall-clock and socket access isolated here so the rest of the tree
   stays free of the unix dependency. *)

let now () = Unix.gettimeofday ()
let now_ms () = 1000. *. now ()

(* A monotone view of the wall clock for the event loop's timer wheel:
   NTP steps and manual clock changes may move [now] backwards, but a
   deadline that was due must stay due, so the last value handed out is
   a floor for the next one. *)
let mono_floor = ref neg_infinity

let mono_ms () =
  let t = now_ms () in
  let t = if t > !mono_floor then t else !mono_floor in
  mono_floor := t;
  t

let guard f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
    Error (fn ^ ": " ^ Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Loopback TCP                                                        *)

type listener = Unix.file_descr
type conn = Unix.file_descr

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> begin
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      Error ("unknown host " ^ host)
    | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0)
  end

let listen ?(host = "127.0.0.1") ?(backlog = 64) ~port () =
  match resolve host with
  | Error _ as e -> e
  | Ok addr ->
    guard (fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (addr, port));
        Unix.listen fd backlog;
        fd)

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0

(* Select-then-accept, retrying on the usual races (EINTR, a peer that
   aborted between readiness and accept, or an EAGAIN from a listener
   the event loop has switched to non-blocking mode). *)
let accept ?timeout_s fd =
  let deadline =
    match timeout_s with Some t -> Some (now () +. t) | None -> None
  in
  let rec go () =
    let wait =
      match deadline with None -> 1.0 | Some d -> d -. now ()
    in
    if wait <= 0. then Error "accept: timed out waiting for a connection"
    else begin
      match Unix.select [ fd ] [] [] wait with
      | [], _, _ -> begin
        match deadline with
        | None -> go ()
        | Some _ -> Error "accept: timed out waiting for a connection"
      end
      | _ :: _, _, _ -> begin
        match Unix.accept fd with
        | conn, _ -> Ok conn
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
          go ()
        | exception Unix.Unix_error (e, fn, _) ->
          Error (fn ^ ": " ^ Unix.error_message e)
      end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    end
  in
  go ()

(* Non-blocking connect + select-for-writability so a dead or
   unreachable peer cannot wedge the caller past [timeout_s]: the
   three-way handshake completes in the background and the socket
   becomes writable (or carries a pending SO_ERROR) when it resolves. *)
let connect_deadline fd sockaddr ~timeout_s =
  Unix.set_nonblock fd;
  let finish () =
    match Unix.getsockopt_error fd with
    | None ->
      Unix.clear_nonblock fd;
      fd
    | Some e -> raise (Unix.Unix_error (e, "connect", ""))
  in
  match Unix.connect fd sockaddr with
  | () -> finish ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
    let deadline = now () +. timeout_s in
    let rec wait () =
      let remaining = deadline -. now () in
      if remaining <= 0. then
        raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      else begin
        match Unix.select [] [ fd ] [ fd ] remaining with
        | [], [], [] -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
        | _ -> finish ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      end
    in
    wait ()

let connect ?timeout_s ~host ~port () =
  match resolve host with
  | Error _ as e -> e
  | Ok addr ->
    guard (fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (match
           match timeout_s with
           | None -> Unix.connect fd (Unix.ADDR_INET (addr, port))
           | Some timeout_s ->
             ignore (connect_deadline fd (Unix.ADDR_INET (addr, port)) ~timeout_s)
         with
        | () -> ()
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e);
        fd)

let close_conn fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let close_listener fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd buf =
  let n = Bytes.length buf in
  let rec go off =
    if off >= n then Ok ()
    else begin
      match Unix.write fd buf off (n - off) with
      | 0 -> Error "write: connection closed"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* A conn switched to non-blocking mode can report a full
           buffer here; wait until it drains rather than failing the
           write. *)
        (match Unix.select [] [ fd ] [] 30. with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go off
      | exception Unix.Unix_error (e, fn, _) ->
        Error (fn ^ ": " ^ Unix.error_message e)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Raw (unframed) byte streams — Http_probe speaks plain HTTP text over
   the same conn type. *)

let send_raw fd payload =
  write_all fd (Bytes.unsafe_of_string payload)

let recv_all ?(timeout_s = 30.) fd ~max_bytes =
  let deadline = now () +. timeout_s in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    if Buffer.length buf > max_bytes then Error "recv_all: response too large"
    else begin
      let remaining = deadline -. now () in
      if remaining <= 0. then Error "recv_all: timed out"
      else begin
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> Error "recv_all: timed out"
        | _ :: _, _, _ -> begin
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Ok (Buffer.contents buf)
          | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            go ()
          | exception Unix.Unix_error (e, fn, _) ->
            Error (fn ^ ": " ^ Unix.error_message e)
        end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Non-blocking primitives — the event-loop host's substrate. A conn is
   switched to non-blocking once ([set_nonblocking]) and then pumped by
   readiness: [wait_ready] multiplexes every registered descriptor
   through one select, and [read_nb]/[write_nb] move whatever bytes the
   kernel has without ever parking the process on one peer. *)

let frame_header_bytes = 4

let encode_frame payload =
  let len = String.length payload in
  let buf = Bytes.create (frame_header_bytes + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf frame_header_bytes len;
  Bytes.unsafe_to_string buf

let decode_frame_header header =
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  if len < 0 || len > Vegvisir.Wire.max_frame then Error "bad frame length" else Ok len

let set_nonblocking fd = try Unix.set_nonblock fd with Unix.Unix_error _ -> ()

(* On Unix a file_descr IS the kernel's small int; the event loop keys
   its per-connection state on it so every map stays deterministically
   ordered without polymorphic comparison on the abstract type. *)
external int_of_fd : Unix.file_descr -> int = "%identity"

let conn_id (fd : conn) = int_of_fd fd
let listener_id (fd : listener) = int_of_fd fd

let accept_nb fd =
  (* The listener must not park the loop when the queue drains mid-burst;
     flipping it non-blocking here is idempotent and keeps [listen]'s
     result usable by the blocking [accept] path too. *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  match Unix.accept fd with
  | conn, _ ->
    Unix.set_nonblock conn;
    Ok (`Conn conn)
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
    Ok `Would_block
  | exception Unix.Unix_error (e, fn, _) ->
    Error (fn ^ ": " ^ Unix.error_message e)

let read_nb fd buf ~pos ~len =
  match Unix.read fd buf pos len with
  | 0 -> Ok `Eof
  | k -> Ok (`Read k)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    Ok `Would_block
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Ok `Eof
  | exception Unix.Unix_error (e, fn, _) ->
    Error (fn ^ ": " ^ Unix.error_message e)

let write_nb fd buf ~pos ~len =
  match Unix.write fd buf pos len with
  | k -> Ok (`Wrote k)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    Ok `Would_block
  | exception Unix.Unix_error (e, fn, _) ->
    Error (fn ^ ": " ^ Unix.error_message e)

type ready = {
  accept_ready : listener list;
  read_ready : conn list;
  write_ready : conn list;
}

let no_ready = { accept_ready = []; read_ready = []; write_ready = [] }

let wait_ready ~listeners ~read ~write ~timeout_s =
  let rd = listeners @ read in
  match Unix.select rd write [] timeout_s with
  | readable, writable, _ ->
    let is_listener fd = List.memq fd listeners in
    Ok
      {
        accept_ready = List.filter is_listener readable;
        read_ready = List.filter (fun fd -> not (is_listener fd)) readable;
        write_ready = writable;
      }
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok no_ready
  | exception Unix.Unix_error (e, fn, _) ->
    Error (fn ^ ": " ^ Unix.error_message e)

(* SIGINT/SIGTERM -> one call of [f] per delivery; the daemon uses this
   to flip its drain flag. Handlers run between OCaml allocations, so
   [f] must only set flags — never do IO. *)
let install_stop_handler f =
  let handler = Sys.Signal_handle (fun _ -> f ()) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm handler with Invalid_argument _ | Sys_error _ -> ()

(* SIGQUIT -> flight-recorder dump request. Same flag-only discipline. *)
let install_quit_handler f =
  let handler = Sys.Signal_handle (fun _ -> f ()) in
  try Sys.set_signal Sys.sigquit handler
  with Invalid_argument _ | Sys_error _ -> ()
