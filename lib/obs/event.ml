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

(* Partition groups ride in one flat string field ("0,0,1,1"; "" for an
   empty map; "-" when the partition is lifted) — the JSONL codec only
   carries flat objects of strings and numbers, and one group id per node
   index is tiny. *)
let groups_to_string = function
  | None -> "-"
  | Some gs -> String.concat "," (List.map string_of_int gs)

let groups_of_string = function
  | "-" -> Some None
  | "" -> Some (Some [])
  | s ->
    let parts = String.split_on_char ',' s in
    let ids = List.filter_map int_of_string_opt parts in
    if List.compare_lengths ids parts = 0 then Some (Some ids) else None

let subsystem = function
  | Block _ -> "block"
  | Block_redundant _ | Blocks_advertised _ -> "gossip"
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

let block_phase_equal (a : block_phase) b =
  String.equal (phase_to_string a) (phase_to_string b)

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

(* ------------------------------------------------------------------ *)
(* The field schema                                                     *)

type field = S of string | I of int | F of float

let emit_hash emit k h = emit k (S (Hash_id.to_hex h))
let emit_opt emit k = function None -> () | Some v -> emit k (S v)

(* The one encode-side listing of each constructor's fields, in journal
   order: the encoder, [fields] (so [pp]) and [equal] all derive from
   it, and only the decoder spells the key names again. Every record
   field is bound by name, never with [; _], so a field added to [t]
   fails the build here until it is listed (warning 9), and so does a
   bound field left unemitted (warning 27). [phase] and [name] ride in
   [kind], so they are bound as [_]. *)
let iter_fields ev emit =
  match ev with
  | Block { node; phase = _; block; peer } ->
    emit "node" (S node);
    emit_hash emit "block" block;
    emit_opt emit "peer" peer
  | Block_redundant { node; block; peer } ->
    emit "node" (S node);
    emit_hash emit "block" block;
    emit_opt emit "peer" peer
  | Blocks_advertised { node; peer; hashes } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "hashes" (I hashes)
  | Net_sent { src; dst; bytes } | Net_delivered { src; dst; bytes } ->
    emit "src" (S src);
    emit "dst" (S dst);
    emit "bytes" (I bytes)
  | Partition_changed { groups } -> emit "groups" (S (groups_to_string groups))
  | Net_dropped { src; dst; bytes; reason } ->
    emit "src" (S src);
    emit "dst" (S dst);
    emit "bytes" (I bytes);
    emit "reason" (S (drop_reason_to_string reason))
  | Session_started { node; peer; generation } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "gen" (I generation)
  | Session_completed { node; peer; generation; blocks; duration_ms } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "gen" (I generation);
    emit "blocks" (I blocks);
    emit "dur_ms" (F duration_ms)
  | Session_aborted { node; peer; generation; reason } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "gen" (I generation);
    emit "reason" (S (abort_reason_to_string reason))
  | Request_resent { node; peer; generation; attempt } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "gen" (I generation);
    emit "attempt" (I attempt)
  | Leader_elected { node; term } ->
    emit "node" (S node);
    emit "term" (I term)
  | Block_archived { node; block; index } ->
    emit "node" (S node);
    emit_hash emit "block" block;
    emit "index" (I index)
  | Store_loaded { node; blocks } | Store_saved { node; blocks } ->
    emit "node" (S node);
    emit "blocks" (I blocks)
  | Sync_started { node; peer } ->
    emit "node" (S node);
    emit "peer" (S peer)
  | Sync_completed { node; peer; pulled; served } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "pulled" (I pulled);
    emit "served" (I served)
  | Recovery_completed { node; peer; blocks } ->
    emit "node" (S node);
    emit "peer" (S peer);
    emit "blocks" (I blocks)
  | Span { node; trace; span; parent; name = _; dur_ms } ->
    emit "node" (S node);
    emit "trace" (S trace);
    emit "span" (S span);
    emit "dur_ms" (F dur_ms);
    emit_opt emit "parent" parent

let fields ev =
  let acc = ref [] in
  iter_fields ev (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let field_equal (k, a) (k', b) =
  String.equal k k'
  &&
  match (a, b) with
  | S x, S y -> String.equal x y
  | I x, I y -> Int.equal x y
  | F x, F y -> Float.equal x y
  | (S _ | I _ | F _), (S _ | I _ | F _) -> false

(* (subsystem, kind) names the constructor and carries [phase] or
   [name]; the field list carries everything else. *)
let equal a b =
  String.equal (subsystem a) (subsystem b)
  && String.equal (kind a) (kind b)
  && List.equal field_equal (fields a) (fields b)

(* Keys are plain identifiers, written without escaping. The emitted
   bytes are pinned by the round-trip and same-seed determinism tests. *)
let add_json b ~ts ev =
  Buffer.add_string b "{\"t\":";
  Buffer.add_string b ts;
  Buffer.add_string b ",\"sub\":";
  add_json_string b (subsystem ev);
  Buffer.add_string b ",\"ev\":";
  add_json_string b (kind ev);
  iter_fields ev (fun k v ->
      Buffer.add_string b ",\"";
      Buffer.add_string b k;
      Buffer.add_string b "\":";
      match v with
      | S s -> add_json_string b s
      | I i -> Buffer.add_string b (string_of_int i)
      | F f -> Buffer.add_string b (json_float f));
  Buffer.add_char b '}'

let to_json_buf b ~ts ev = add_json b ~ts:(json_float ts) ev

let to_json ~ts ev =
  let b = Buffer.create 160 in
  to_json_buf b ~ts ev;
  Buffer.contents b

(* A batch shares one stamp, so it is rendered once. *)
let to_json_lines b ~ts events =
  let ts = json_float ts in
  List.iter
    (fun ev ->
      add_json b ~ts ev;
      Buffer.add_char b '\n')
    events

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
