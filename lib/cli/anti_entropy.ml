(* The daemon's anti-entropy dial policy, with no socket and no clock: the
   loop asks it which configured peer to dial each period and tells it
   how each dial went; the host reads mono_ms and passes it in, so the
   policy's choices are a function of the (now, answer) sequence fed to
   it. *)

(* How many recent dial labels the log keeps. *)
let max_dial_log = 64

(* Consecutive failures double a peer's wait up to 2^6 = 64 periods. *)
let backoff_cap_doublings = 6

type dial = { host : string; port : int; label : string }

type peer = {
  dial : dial;
  mutable fails : int;
  mutable blocked_until : float;  (* mono_ms; 0. = always eligible *)
}

type t = {
  every_ms : float;
  dial_timeout_s : float;
  peers : peer list;
  mutable log_rev : string list;  (* newest first, at most max_dial_log *)
}

let create ~every_ms ~dial_timeout_s ~peers =
  let peer (host, port) =
    let label = host ^ ":" ^ string_of_int port in
    { dial = { host; port; label }; fails = 0; blocked_until = 0. }
  in
  { every_ms; dial_timeout_s; peers = List.map peer peers; log_rev = [] }

let every_ms t = t.every_ms
let dial_timeout_s t = t.dial_timeout_s
let labels t = List.map (fun p -> p.dial.label) t.peers
let find t label = List.find_opt (fun p -> String.equal p.dial.label label) t.peers

let choose t ~now_ms ~priority ~busy =
  let eligible label =
    match find t label with
    | Some p when p.blocked_until <= now_ms && not (busy label) -> Some p.dial
    | Some _ | None -> None
  in
  match List.find_map eligible (priority (labels t)) with
  | None -> None
  | Some d ->
    t.log_rev <-
      List.filteri (fun i (_ : string) -> i < max_dial_log) (d.label :: t.log_rev);
    Some d

let connected t label =
  match find t label with
  | Some p ->
    p.fails <- 0;
    p.blocked_until <- 0.
  | None -> ()

let failed t ~now_ms label =
  match find t label with
  | Some p ->
    p.fails <- p.fails + 1;
    let doublings = Int.min p.fails backoff_cap_doublings in
    p.blocked_until <-
      now_ms +. (t.every_ms *. Float.of_int (Int.shift_left 1 doublings))
  | None -> ()

let failures t label = Option.map (fun p -> p.fails) (find t label)
let dials t = List.rev t.log_rev
