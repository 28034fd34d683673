(** The only sanctioned operating-system call sites in the tree.

    Everything under [lib/] other than this module is deterministic: the
    simulator, experiments, and protocol core take time from the seeded
    event queue ([Vegvisir_net.Simnet]) or from explicit
    [Timestamp.t] arguments, so a run is a pure function of its seed.
    The CLI is the one component that lives on a real device and must
    stamp blocks with real time and move real bytes; it funnels those
    impurities through this shim. The [no-wall-clock] lint rule bans
    [Unix.gettimeofday]/[Unix.time]/[Sys.time] everywhere else — add new
    OS-time needs here, not inline. *)

val now : unit -> float
(** Current wall-clock time in seconds since the Unix epoch, with
    sub-second precision ([Unix.gettimeofday]). Monotonicity is NOT
    guaranteed (NTP steps, manual clock changes); callers deriving block
    timestamps must clamp against their own last-seen value. *)

val now_ms : unit -> float
(** [now], in milliseconds — the clock unit of
    {!Vegvisir_engine.Peer_engine}. *)

val mono_ms : unit -> float
(** [now_ms] clamped monotone (process-local): never decreases even if
    the wall clock steps backwards. The {!Event_loop} timer wheel runs
    on this clock so deadlines that were due stay due. *)

(** {1 TCP connections}

    Listening, accepting and dialing. A conn from {!accept} or
    {!connect} is blocking until {!set_nonblocking}; one from
    {!connect_start} or {!accept_nb} is non-blocking from the start.
    Every conn has [TCP_NODELAY] set: the sessions here are
    request/reply, so Nagle's algorithm could only delay a reply's
    last segment until the peer's delayed ACK, never merge frames.
    {!Event_loop} moves every session's frames with the non-blocking
    primitives below. All functions return [Error] with a
    human-readable message rather than raising [Unix.Unix_error]. *)

type listener
type conn

val listen :
  ?host:string -> ?backlog:int -> port:int -> unit -> (listener, string) result
(** Bind (with [SO_REUSEADDR]) and listen on [host] (default loopback,
    [127.0.0.1]). [port] 0 picks an ephemeral port; recover it with
    {!bound_port}. [backlog] (default 64) bounds the kernel's pending
    accept queue — the daemon's listener raises it so a burst of peers
    queues instead of being refused. *)

val bound_port : listener -> int

val accept : ?timeout_s:float -> listener -> (conn, string) result
(** Wait for one inbound connection (forever when [timeout_s] is
    omitted): {!accept_nb} waited out with {!await}. The conn is in
    blocking mode. *)

val connect :
  ?timeout_s:float -> host:string -> port:int -> unit -> (conn, string) result
(** Open a TCP connection, blocking: {!connect_start}, then {!await}
    writability and read {!connect_result}. With [timeout_s] a handshake
    not resolved in time is abandoned with {!connect_timeout_error}, so
    a dead or blackholed peer cannot wedge the caller; without it the
    kernel's own verdict is awaited. The returned conn is in blocking
    mode. Name resolution ([gethostbyname] for a non-literal host)
    blocks either way. *)

val connect_start : host:string -> port:int -> unit -> (conn, string) result
(** Start a non-blocking connect and return the conn at once, its
    handshake under way (or already done). It becomes writable when the
    handshake resolves; {!connect_result} then says how. [Error] (with
    the same [connect: ...] text a blocking connect reports) when the
    kernel refuses at once. *)

val connect_result : conn -> (unit, string) result
(** After a started connect's conn turned writable: [Ok] if it
    connected, else its error as ["connect: <reason>"]. *)

val connect_timeout_error : string
(** ["connect: Connection timed out"], the error of a connect whose
    deadline passed. *)

val close_conn : conn -> unit
val close_listener : listener -> unit

(** {1 Non-blocking primitives}

    The substrate of {!Event_loop}: one process multiplexes many
    connections by switching each to non-blocking mode and pumping it
    only when {!wait_ready} reports the kernel has work for it. The
    [_nb] calls never park the process — they move whatever bytes are
    available and report [`Would_block] otherwise. [EINTR] is absorbed
    everywhere (reported as [`Would_block] / empty readiness), so a
    signal can only delay a loop iteration, never fail it. *)

val set_nonblocking : conn -> unit

val conn_id : conn -> int
(** The underlying descriptor number — a stable, deterministic map key
    for per-connection state (no polymorphic comparison on the abstract
    type). Valid while the conn is open; the kernel may recycle it after
    {!close_conn}. *)

val listener_id : listener -> int

val accept_nb :
  listener -> ([ `Conn of conn | `Would_block ], string) result
(** Accept one pending connection, already switched to non-blocking
    mode with [TCP_NODELAY] set; [`Would_block] when the queue is empty
    (or the peer aborted between readiness and accept). When a socket
    option cannot be set, the connection is closed and the error
    returned. *)

val read_nb :
  conn ->
  Bytes.t ->
  pos:int ->
  len:int ->
  ([ `Read of int | `Eof | `Would_block ], string) result
(** One [read]: [`Read n] for [n > 0] bytes, [`Eof] on orderly close
    (or [ECONNRESET]/[EPIPE] — the peer is gone either way). *)

val write_nb :
  conn ->
  Bytes.t ->
  pos:int ->
  len:int ->
  ([ `Wrote of int | `Would_block ], string) result

type ready = {
  accept_ready : listener list;
  read_ready : conn list;
  write_ready : conn list;
}

val wait_ready :
  listeners:listener list ->
  read:conn list ->
  write:conn list ->
  timeout_s:float ->
  (ready, string) result
(** Block until some registered descriptor is ready or [timeout_s]
    elapses (0 polls, negative waits forever). A signal during the wait
    returns empty readiness rather than an error. *)

val await :
  ?deadline:float ->
  timed_out:string ->
  listeners:listener list ->
  read:conn list ->
  write:conn list ->
  unit ->
  (unit, string) result
(** {!wait_ready} repeated until some descriptor is ready; [Error
    timed_out] once the absolute [deadline] (on {!now}) has passed, and
    no limit without one. How {!accept}, {!connect} and {!Http_probe}
    block on the non-blocking primitives. *)

val encode_frame : string -> string
(** {!Framing.encode}: the payload with its 4-byte big-endian length
    prefix, for callers that frame their own bytes over a conn. *)

(** {1 Signals} *)

val install_stop_handler : (unit -> unit) -> unit
(** Route [SIGINT] and [SIGTERM] to [f] (called once per delivery). [f]
    runs from a signal handler: set a flag, do no IO. *)

val install_quit_handler : (unit -> unit) -> unit
(** Route [SIGQUIT] to [f] — the daemon's flight-recorder dump trigger.
    Same discipline as {!install_stop_handler}: [f] only sets a flag;
    the event loop writes the dump at its next iteration. No-op on
    platforms without [SIGQUIT]. *)
