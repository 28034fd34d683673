open Vegvisir

type node = string

type block_phase = Created | Sent | Received | Validated | Delivered | Witnessed

type drop_reason = Link_loss | Disconnected | Asleep

type abort_reason = Stalled | Timed_out

type t =
  | Block of {
      node : node;
      phase : block_phase;
      block : Hash_id.t;
      peer : node option;
    }
  | Block_dropped of { node : node; block : Hash_id.t }
  | Block_redundant of { node : node; block : Hash_id.t; peer : node option }
  | Blocks_advertised of { node : node; peer : node; hashes : int }
  | Net_sent of { src : node; dst : node; bytes : int }
  | Net_delivered of { src : node; dst : node; bytes : int }
  | Net_dropped of { src : node; dst : node; bytes : int; reason : drop_reason }
  | Partition_changed of { groups : int list option }
  | Session_started of { node : node; peer : node; generation : int }
  | Session_completed of {
      node : node;
      peer : node;
      generation : int;
      blocks : int;
      duration_ms : float;
    }
  | Session_aborted of {
      node : node;
      peer : node;
      generation : int;
      reason : abort_reason;
    }
  | Request_resent of {
      node : node;
      peer : node;
      generation : int;
      attempt : int;
    }
  | Leader_elected of { node : node; term : int }
  | Block_archived of { node : node; block : Hash_id.t; index : int }
  | Store_loaded of { node : node; blocks : int }
  | Store_saved of { node : node; blocks : int }
  | Sync_started of { node : node; peer : node }
  | Sync_completed of { node : node; peer : node; pulled : int; served : int }
  | Recovery_completed of { node : node; peer : node; blocks : int }
  | Span of {
      node : node;
      trace : string;
      span : string;
      parent : string option;
      name : string;
      dur_ms : float;
    }

(* ------------------------------------------------------------------ *)
(* String forms                                                         *)

let phase_to_string = function
  | Created -> "created"
  | Sent -> "sent"
  | Received -> "received"
  | Validated -> "validated"
  | Delivered -> "delivered"
  | Witnessed -> "witnessed"

let phase_of_string = function
  | "created" -> Some Created
  | "sent" -> Some Sent
  | "received" -> Some Received
  | "validated" -> Some Validated
  | "delivered" -> Some Delivered
  | "witnessed" -> Some Witnessed
  | _ -> None

let drop_reason_to_string = function
  | Link_loss -> "link-loss"
  | Disconnected -> "disconnected"
  | Asleep -> "asleep"

let drop_reason_of_string = function
  | "link-loss" -> Some Link_loss
  | "disconnected" -> Some Disconnected
  | "asleep" -> Some Asleep
  | _ -> None

let abort_reason_to_string = function
  | Stalled -> "stalled"
  | Timed_out -> "timed-out"

let abort_reason_of_string = function
  | "stalled" -> Some Stalled
  | "timed-out" -> Some Timed_out
  | _ -> None

(* Partition groups ride in one flat string field ("0,0,1,1"; "-" when the
   partition is lifted) — the JSONL codec only carries flat objects of
   strings and numbers, and one group id per node index is tiny. *)
let groups_to_string = function
  | None -> "-"
  | Some gs -> String.concat "," (List.map string_of_int gs)

let groups_of_string = function
  | "-" -> Some None
  | s ->
    let parts = String.split_on_char ',' s in
    let ids = List.filter_map int_of_string_opt parts in
    if List.length ids = List.length parts && ids <> [] then Some (Some ids)
    else None

let groups_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> List.equal Int.equal x y
  | (None | Some _), (None | Some _) -> false

let subsystem = function
  | Block _ -> "block"
  | Block_dropped _ | Block_redundant _ | Blocks_advertised _ -> "gossip"
  | Net_sent _ | Net_delivered _ | Net_dropped _ | Partition_changed _ -> "net"
  | Session_started _ | Session_completed _ | Session_aborted _
  | Request_resent _ ->
    "session"
  | Leader_elected _ | Block_archived _ -> "cluster"
  | Store_loaded _ | Store_saved _ | Sync_started _ | Sync_completed _
  | Recovery_completed _ ->
    "store"
  | Span _ -> "span"

let primary_node = function
  | Block { node; _ }
  | Block_dropped { node; _ }
  | Block_redundant { node; _ }
  | Blocks_advertised { node; _ }
  | Session_started { node; _ }
  | Session_completed { node; _ }
  | Session_aborted { node; _ }
  | Request_resent { node; _ }
  | Leader_elected { node; _ }
  | Block_archived { node; _ }
  | Store_loaded { node; _ }
  | Store_saved { node; _ }
  | Sync_started { node; _ }
  | Sync_completed { node; _ }
  | Recovery_completed { node; _ }
  | Span { node; _ } ->
    Some node
  | Net_sent { src; _ } | Net_dropped { src; _ } -> Some src
  | Net_delivered { dst; _ } -> Some dst
  | Partition_changed _ -> None

let kind = function
  | Block { phase; _ } -> phase_to_string phase
  | Block_dropped _ -> "block-dropped"
  | Block_redundant _ -> "block-redundant"
  | Blocks_advertised _ -> "blocks-advertised"
  | Net_sent _ -> "sent"
  | Net_delivered _ -> "delivered"
  | Net_dropped _ -> "dropped"
  | Partition_changed _ -> "partition"
  | Session_started _ -> "started"
  | Session_completed _ -> "completed"
  | Session_aborted _ -> "aborted"
  | Request_resent _ -> "resent"
  | Leader_elected _ -> "leader-elected"
  | Block_archived _ -> "archived"
  | Store_loaded _ -> "loaded"
  | Store_saved _ -> "saved"
  | Sync_started _ -> "sync-started"
  | Sync_completed _ -> "sync-completed"
  | Recovery_completed _ -> "recovered"
  | Span { name; _ } -> name

(* ------------------------------------------------------------------ *)
(* Equality                                                             *)

let opt_node_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> String.equal a b
  | (None | Some _), (None | Some _) -> false

let block_phase_equal (a : block_phase) b =
  String.equal (phase_to_string a) (phase_to_string b)

let equal a b =
  match (a, b) with
  | Block a, Block b ->
    String.equal a.node b.node
    && block_phase_equal a.phase b.phase
    && Hash_id.equal a.block b.block
    && opt_node_equal a.peer b.peer
  | Block_dropped a, Block_dropped b ->
    String.equal a.node b.node && Hash_id.equal a.block b.block
  | Block_redundant a, Block_redundant b ->
    String.equal a.node b.node
    && Hash_id.equal a.block b.block
    && opt_node_equal a.peer b.peer
  | Blocks_advertised a, Blocks_advertised b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.hashes b.hashes
  | Partition_changed a, Partition_changed b -> groups_equal a.groups b.groups
  | Net_sent a, Net_sent b ->
    String.equal a.src b.src && String.equal a.dst b.dst
    && Int.equal a.bytes b.bytes
  | Net_delivered a, Net_delivered b ->
    String.equal a.src b.src && String.equal a.dst b.dst
    && Int.equal a.bytes b.bytes
  | Net_dropped a, Net_dropped b ->
    String.equal a.src b.src && String.equal a.dst b.dst
    && Int.equal a.bytes b.bytes
    && String.equal (drop_reason_to_string a.reason)
         (drop_reason_to_string b.reason)
  | Session_started a, Session_started b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.generation b.generation
  | Session_completed a, Session_completed b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.generation b.generation
    && Int.equal a.blocks b.blocks
    && Float.equal a.duration_ms b.duration_ms
  | Session_aborted a, Session_aborted b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.generation b.generation
    && String.equal (abort_reason_to_string a.reason)
         (abort_reason_to_string b.reason)
  | Request_resent a, Request_resent b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.generation b.generation
    && Int.equal a.attempt b.attempt
  | Leader_elected a, Leader_elected b ->
    String.equal a.node b.node && Int.equal a.term b.term
  | Block_archived a, Block_archived b ->
    String.equal a.node b.node
    && Hash_id.equal a.block b.block
    && Int.equal a.index b.index
  | Store_loaded a, Store_loaded b ->
    String.equal a.node b.node && Int.equal a.blocks b.blocks
  | Store_saved a, Store_saved b ->
    String.equal a.node b.node && Int.equal a.blocks b.blocks
  | Sync_started a, Sync_started b ->
    String.equal a.node b.node && String.equal a.peer b.peer
  | Sync_completed a, Sync_completed b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.pulled b.pulled
    && Int.equal a.served b.served
  | Recovery_completed a, Recovery_completed b ->
    String.equal a.node b.node && String.equal a.peer b.peer
    && Int.equal a.blocks b.blocks
  | Span a, Span b ->
    String.equal a.node b.node && String.equal a.trace b.trace
    && String.equal a.span b.span
    && opt_node_equal a.parent b.parent
    && String.equal a.name b.name
    && Float.equal a.dur_ms b.dur_ms
  | ( ( Block _ | Block_dropped _ | Block_redundant _ | Blocks_advertised _
      | Net_sent _ | Net_delivered _ | Net_dropped _ | Partition_changed _
      | Session_started _ | Session_completed _ | Session_aborted _
      | Request_resent _ | Leader_elected _ | Block_archived _
      | Store_loaded _ | Store_saved _ | Sync_started _ | Sync_completed _
      | Recovery_completed _ | Span _ ),
      _ ) ->
    false

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                        *)

(* Timestamps are encoded exactly (shortest decimal that parses back to
   the same float), so a decode/re-encode round trip is byte-identical —
   the property the same-seed determinism tests pin down. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

(* The escape scanner copies maximal clean runs with [add_substring]
   instead of walking char by char — on the overwhelmingly common
   escape-free payload (hex hashes, node ids) a string costs one scan
   and one blit. Output bytes are identical to the old per-char walk. *)
let add_escaped b s =
  let n = String.length s in
  let needs_escape c =
    match c with
    | '"' | '\\' -> true
    | c -> Char.code c < 0x20
  in
  let rec run start j =
    if j >= n then begin
      if start < j then Buffer.add_substring b s start (j - start)
    end
    else if needs_escape s.[j] then begin
      if start < j then Buffer.add_substring b s start (j - start);
      (match s.[j] with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
      run (j + 1) (j + 1)
    end
    else run start (j + 1)
  in
  run 0 0

let add_json_string b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  add_json_string b s;
  Buffer.contents b

type field = S of string | I of int | F of float

let fields = function
  | Block { node; phase = _; block; peer } ->
    [ ("node", S node); ("block", S (Hash_id.to_hex block)) ]
    @ (match peer with None -> [] | Some p -> [ ("peer", S p) ])
  | Block_dropped { node; block } ->
    [ ("node", S node); ("block", S (Hash_id.to_hex block)) ]
  | Block_redundant { node; block; peer } ->
    [ ("node", S node); ("block", S (Hash_id.to_hex block)) ]
    @ (match peer with None -> [] | Some p -> [ ("peer", S p) ])
  | Blocks_advertised { node; peer; hashes } ->
    [ ("node", S node); ("peer", S peer); ("hashes", I hashes) ]
  | Net_sent { src; dst; bytes } | Net_delivered { src; dst; bytes } ->
    [ ("src", S src); ("dst", S dst); ("bytes", I bytes) ]
  | Partition_changed { groups } -> [ ("groups", S (groups_to_string groups)) ]
  | Net_dropped { src; dst; bytes; reason } ->
    [
      ("src", S src);
      ("dst", S dst);
      ("bytes", I bytes);
      ("reason", S (drop_reason_to_string reason));
    ]
  | Session_started { node; peer; generation } ->
    [ ("node", S node); ("peer", S peer); ("gen", I generation) ]
  | Session_completed { node; peer; generation; blocks; duration_ms } ->
    [
      ("node", S node);
      ("peer", S peer);
      ("gen", I generation);
      ("blocks", I blocks);
      ("dur_ms", F duration_ms);
    ]
  | Session_aborted { node; peer; generation; reason } ->
    [
      ("node", S node);
      ("peer", S peer);
      ("gen", I generation);
      ("reason", S (abort_reason_to_string reason));
    ]
  | Request_resent { node; peer; generation; attempt } ->
    [
      ("node", S node);
      ("peer", S peer);
      ("gen", I generation);
      ("attempt", I attempt);
    ]
  | Leader_elected { node; term } -> [ ("node", S node); ("term", I term) ]
  | Block_archived { node; block; index } ->
    [
      ("node", S node);
      ("block", S (Hash_id.to_hex block));
      ("index", I index);
    ]
  | Store_loaded { node; blocks } | Store_saved { node; blocks } ->
    [ ("node", S node); ("blocks", I blocks) ]
  | Sync_started { node; peer } -> [ ("node", S node); ("peer", S peer) ]
  | Sync_completed { node; peer; pulled; served } ->
    [
      ("node", S node);
      ("peer", S peer);
      ("pulled", I pulled);
      ("served", I served);
    ]
  | Recovery_completed { node; peer; blocks } ->
    [ ("node", S node); ("peer", S peer); ("blocks", I blocks) ]
  | Span { node; trace; span; parent; name = _; dur_ms } ->
    [ ("node", S node); ("trace", S trace); ("span", S span);
      ("dur_ms", F dur_ms) ]
    @ (match parent with None -> [] | Some p -> [ ("parent", S p) ])

(* The encoder writes each variant's fields straight into the caller's
   buffer — no per-event assoc list, no per-field string allocation.
   The key literals below carry their own leading comma/quotes/colon;
   names and order must stay in lockstep with [fields] above (pp and
   the decoder share the vocabulary), and the emitted bytes are pinned
   by the round-trip and same-seed determinism tests. *)
let add_str b k v =
  Buffer.add_string b k;
  add_json_string b v

let add_int b k v =
  Buffer.add_string b k;
  Buffer.add_string b (string_of_int v)

let add_float b k v =
  Buffer.add_string b k;
  Buffer.add_string b (json_float v)

let add_hash b k v = add_str b k (Hash_id.to_hex v)

let add_opt_peer b = function
  | None -> ()
  | Some p -> add_str b ",\"peer\":" p

let add_fields b = function
  | Block { node; phase = _; block; peer } ->
    add_str b ",\"node\":" node;
    add_hash b ",\"block\":" block;
    add_opt_peer b peer
  | Block_dropped { node; block } ->
    add_str b ",\"node\":" node;
    add_hash b ",\"block\":" block
  | Block_redundant { node; block; peer } ->
    add_str b ",\"node\":" node;
    add_hash b ",\"block\":" block;
    add_opt_peer b peer
  | Blocks_advertised { node; peer; hashes } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"hashes\":" hashes
  | Net_sent { src; dst; bytes } | Net_delivered { src; dst; bytes } ->
    add_str b ",\"src\":" src;
    add_str b ",\"dst\":" dst;
    add_int b ",\"bytes\":" bytes
  | Partition_changed { groups } ->
    add_str b ",\"groups\":" (groups_to_string groups)
  | Net_dropped { src; dst; bytes; reason } ->
    add_str b ",\"src\":" src;
    add_str b ",\"dst\":" dst;
    add_int b ",\"bytes\":" bytes;
    add_str b ",\"reason\":" (drop_reason_to_string reason)
  | Session_started { node; peer; generation } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"gen\":" generation
  | Session_completed { node; peer; generation; blocks; duration_ms } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"gen\":" generation;
    add_int b ",\"blocks\":" blocks;
    add_float b ",\"dur_ms\":" duration_ms
  | Session_aborted { node; peer; generation; reason } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"gen\":" generation;
    add_str b ",\"reason\":" (abort_reason_to_string reason)
  | Request_resent { node; peer; generation; attempt } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"gen\":" generation;
    add_int b ",\"attempt\":" attempt
  | Leader_elected { node; term } ->
    add_str b ",\"node\":" node;
    add_int b ",\"term\":" term
  | Block_archived { node; block; index } ->
    add_str b ",\"node\":" node;
    add_hash b ",\"block\":" block;
    add_int b ",\"index\":" index
  | Store_loaded { node; blocks } | Store_saved { node; blocks } ->
    add_str b ",\"node\":" node;
    add_int b ",\"blocks\":" blocks
  | Sync_started { node; peer } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer
  | Sync_completed { node; peer; pulled; served } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"pulled\":" pulled;
    add_int b ",\"served\":" served
  | Recovery_completed { node; peer; blocks } ->
    add_str b ",\"node\":" node;
    add_str b ",\"peer\":" peer;
    add_int b ",\"blocks\":" blocks
  | Span { node; trace; span; parent; name = _; dur_ms } ->
    add_str b ",\"node\":" node;
    add_str b ",\"trace\":" trace;
    add_str b ",\"span\":" span;
    add_float b ",\"dur_ms\":" dur_ms;
    (match parent with None -> () | Some p -> add_str b ",\"parent\":" p)

let to_json_buf b ~ts ev =
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b (json_float ts);
  Buffer.add_string b ",\"sub\":";
  add_json_string b (subsystem ev);
  Buffer.add_string b ",\"ev\":";
  add_json_string b (kind ev);
  add_fields b ev;
  Buffer.add_char b '}'

let to_json ~ts ev =
  let b = Buffer.create 160 in
  to_json_buf b ~ts ev;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON decoding (flat objects of strings and numbers only)             *)

exception Bad of string

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | Some _ | None -> raise (Bad (Printf.sprintf "expected '%c'" c))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string")
      else begin
        let c = line.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> begin
          if !pos >= n then raise (Bad "dangling escape");
          let e = line.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 > n then raise (Bad "short \\u escape");
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> raise (Bad "bad \\u escape")
            in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else raise (Bad "non-ASCII \\u escape unsupported")
          | _ -> raise (Bad "unknown escape"));
          go ()
        end
        | c ->
          Buffer.add_char b c;
          go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then raise (Bad "expected a number");
    String.sub line start (!pos - start)
  in
  expect '{';
  skip_ws ();
  let entries = ref [] in
  (match peek () with
  | Some '}' -> advance ()
  | Some _ | None ->
    let rec members () =
      let key = parse_string () in
      expect ':';
      skip_ws ();
      let value =
        match peek () with
        | Some '"' -> parse_string ()
        | Some ('0' .. '9' | '-') -> parse_number ()
        | Some _ | None -> raise (Bad "expected a string or number value")
      in
      entries := (key, value) :: !entries;
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        skip_ws ();
        members ()
      | Some '}' -> advance ()
      | Some _ | None -> raise (Bad "expected ',' or '}'")
    in
    members ());
  skip_ws ();
  if !pos <> n then raise (Bad "trailing bytes");
  List.rev !entries

let field k assoc =
  match List.assoc_opt k assoc with
  | Some v -> v
  | None -> raise (Bad ("missing field " ^ k))

let int_field k assoc =
  match int_of_string_opt (field k assoc) with
  | Some i -> i
  | None -> raise (Bad ("non-integer field " ^ k))

let float_field k assoc =
  match float_of_string_opt (field k assoc) with
  | Some f -> f
  | None -> raise (Bad ("non-numeric field " ^ k))

let hash_field k assoc =
  match Hash_id.of_hex (field k assoc) with
  | Some h -> h
  | None -> raise (Bad ("malformed hash in field " ^ k))

let decode assoc =
  let ts =
    match float_of_string_opt (field "t" assoc) with
    | Some t -> t
    | None -> raise (Bad "non-numeric t")
  in
  let node () = field "node" assoc in
  let peer () = field "peer" assoc in
  let ev =
    match (field "sub" assoc, field "ev" assoc) with
    | "block", phase -> begin
      match phase_of_string phase with
      | None -> raise (Bad ("unknown block phase " ^ phase))
      | Some phase ->
        Block
          {
            node = node ();
            phase;
            block = hash_field "block" assoc;
            peer = List.assoc_opt "peer" assoc;
          }
    end
    | "gossip", "block-dropped" ->
      Block_dropped { node = node (); block = hash_field "block" assoc }
    | "gossip", "block-redundant" ->
      Block_redundant
        {
          node = node ();
          block = hash_field "block" assoc;
          peer = List.assoc_opt "peer" assoc;
        }
    | "gossip", "blocks-advertised" ->
      Blocks_advertised
        { node = node (); peer = peer (); hashes = int_field "hashes" assoc }
    | "net", "partition" -> begin
      match groups_of_string (field "groups" assoc) with
      | Some groups -> Partition_changed { groups }
      | None -> raise (Bad "malformed partition groups")
    end
    | "net", "sent" ->
      Net_sent
        {
          src = field "src" assoc;
          dst = field "dst" assoc;
          bytes = int_field "bytes" assoc;
        }
    | "net", "delivered" ->
      Net_delivered
        {
          src = field "src" assoc;
          dst = field "dst" assoc;
          bytes = int_field "bytes" assoc;
        }
    | "net", "dropped" ->
      let reason =
        match drop_reason_of_string (field "reason" assoc) with
        | Some r -> r
        | None -> raise (Bad "unknown drop reason")
      in
      Net_dropped
        {
          src = field "src" assoc;
          dst = field "dst" assoc;
          bytes = int_field "bytes" assoc;
          reason;
        }
    | "session", "started" ->
      Session_started
        { node = node (); peer = peer (); generation = int_field "gen" assoc }
    | "session", "completed" ->
      Session_completed
        {
          node = node ();
          peer = peer ();
          generation = int_field "gen" assoc;
          blocks = int_field "blocks" assoc;
          duration_ms = float_field "dur_ms" assoc;
        }
    | "session", "aborted" ->
      let reason =
        match abort_reason_of_string (field "reason" assoc) with
        | Some r -> r
        | None -> raise (Bad "unknown abort reason")
      in
      Session_aborted
        {
          node = node ();
          peer = peer ();
          generation = int_field "gen" assoc;
          reason;
        }
    | "session", "resent" ->
      Request_resent
        {
          node = node ();
          peer = peer ();
          generation = int_field "gen" assoc;
          attempt = int_field "attempt" assoc;
        }
    | "cluster", "leader-elected" ->
      Leader_elected { node = node (); term = int_field "term" assoc }
    | "cluster", "archived" ->
      Block_archived
        {
          node = node ();
          block = hash_field "block" assoc;
          index = int_field "index" assoc;
        }
    | "store", "loaded" ->
      Store_loaded { node = node (); blocks = int_field "blocks" assoc }
    | "store", "saved" ->
      Store_saved { node = node (); blocks = int_field "blocks" assoc }
    | "store", "sync-started" ->
      Sync_started { node = node (); peer = peer () }
    | "store", "sync-completed" ->
      Sync_completed
        {
          node = node ();
          peer = peer ();
          pulled = int_field "pulled" assoc;
          served = int_field "served" assoc;
        }
    | "store", "recovered" ->
      Recovery_completed
        { node = node (); peer = peer (); blocks = int_field "blocks" assoc }
    | "span", name ->
      (* The span name is the event kind itself — the vocabulary is
         open-ended (hosts mint names like "exchange" or "block"), so
         any name decodes. *)
      Span
        {
          node = node ();
          trace = field "trace" assoc;
          span = field "span" assoc;
          parent = List.assoc_opt "parent" assoc;
          name;
          dur_ms = float_field "dur_ms" assoc;
        }
    | sub, ev -> raise (Bad (Printf.sprintf "unknown event %s/%s" sub ev))
  in
  (ts, ev)

let of_json line =
  match decode (parse_flat line) with
  | pair -> Some pair
  | exception Bad _ -> None

(* ------------------------------------------------------------------ *)
(* Printing                                                             *)

let pp ppf ev =
  Fmt.pf ppf "%s/%s" (subsystem ev) (kind ev);
  List.iter
    (fun (k, v) ->
      match v with
      | S s -> Fmt.pf ppf " %s=%s" k s
      | I i -> Fmt.pf ppf " %s=%d" k i
      | F f -> Fmt.pf ppf " %s=%s" k (json_float f))
    (fields ev)
