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

(* Every conn, dialed or accepted, sends with Nagle's algorithm off
   (TCP_NODELAY). Each exchange is request/reply and [Framing.flush]
   hands the kernel whole frames, so Nagle never merges segments here;
   it only holds the tail of a reply back until the peer's delayed ACK
   (~40 ms on Linux) arrives, which stalled one catch-up exchange in
   five or ten. *)
let set_nodelay fd = Unix.setsockopt fd Unix.TCP_NODELAY true

(* A connect is started non-blocking and resolves in the background: the
   socket becomes writable when the three-way handshake completes or
   fails, and SO_ERROR then says which. The event loop waits for that
   writability among its other descriptors; [connect] waits for it
   alone. *)
let connect_start ~host ~port () =
  match resolve host with
  | Error _ as e -> e
  | Ok addr ->
    guard (fun () ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        match
          Unix.set_nonblock fd;
          set_nodelay fd;
          Unix.connect fd (Unix.ADDR_INET (addr, port))
        with
        | () -> fd
        | exception
            Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          fd
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)

let connect_result fd =
  match Unix.getsockopt_error fd with
  | None -> Ok ()
  | Some e -> Error ("connect: " ^ Unix.error_message e)
  | exception Unix.Unix_error (e, fn, _) -> Error (fn ^ ": " ^ Unix.error_message e)

let connect_timeout_error = "connect: " ^ Unix.error_message Unix.ETIMEDOUT

let close_conn fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let close_listener fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Non-blocking primitives — the event-loop host's substrate. A conn is
   switched to non-blocking once ([set_nonblocking]) and then pumped by
   readiness: [wait_ready] multiplexes every registered descriptor
   through one select, and [read_nb]/[write_nb] move whatever bytes the
   kernel has without ever parking the process on one peer. *)

let encode_frame = Framing.encode

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
  | conn, _ -> begin
    match
      Unix.set_nonblock conn;
      set_nodelay conn
    with
    | () -> Ok (`Conn conn)
    | exception Unix.Unix_error (e, fn, _) ->
      close_conn conn;
      Error (fn ^ ": " ^ Unix.error_message e)
  end
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

(* Park until one of the given descriptors is ready, or until the
   absolute [deadline] (on [now]) passes; without one, for ever. The
   blocking calls below are the loop's non-blocking ones waited out
   alone. *)
let await ?deadline ~timed_out ~listeners ~read ~write () =
  let rec go () =
    let timeout_s = match deadline with Some d -> d -. now () | None -> -1. in
    if Option.is_some deadline && timeout_s <= 0. then Error timed_out
    else begin
      match wait_ready ~listeners ~read ~write ~timeout_s with
      | Error _ as e -> e
      | Ok { accept_ready = []; read_ready = []; write_ready = [] } -> go ()
      | Ok { accept_ready = _ :: _; _ }
      | Ok { read_ready = _ :: _; _ }
      | Ok { write_ready = _ :: _; _ } ->
        Ok ()
    end
  in
  go ()

let deadline_of = Option.map (fun s -> now () +. s)

let blocking fd =
  match Unix.clear_nonblock fd with
  | () -> Ok fd
  | exception Unix.Unix_error (e, fn, _) ->
    close_conn fd;
    Error (fn ^ ": " ^ Unix.error_message e)

let accept ?timeout_s fd =
  let deadline = deadline_of timeout_s in
  let timed_out = "accept: timed out waiting for a connection" in
  let rec go () =
    match await ?deadline ~timed_out ~listeners:[ fd ] ~read:[] ~write:[] () with
    | Error _ as e -> e
    | Ok () -> begin
      match accept_nb fd with
      | Error _ as e -> e
      | Ok `Would_block -> go ()
      | Ok (`Conn conn) -> blocking conn
    end
  in
  go ()

let connect ?timeout_s ~host ~port () =
  match connect_start ~host ~port () with
  | Error _ as e -> e
  | Ok fd -> (
    let deadline = deadline_of timeout_s in
    match
      Result.bind
        (await ?deadline ~timed_out:connect_timeout_error ~listeners:[] ~read:[]
           ~write:[ fd ] ())
        (fun () -> connect_result fd)
    with
    | Ok () -> blocking fd
    | Error _ as e ->
      close_conn fd;
      e)

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
