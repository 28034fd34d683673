(** A single lint finding: a source location, the rule that fired, and a
    human-readable message. Findings print one per line in the
    machine-readable form [file:line:col rule message] and order
    deterministically (file, then line, then column, then rule, then
    message), so the tool's output is stable across runs and
    platforms. *)

type t = {
  file : string;
  line : int;  (** 1-based; where the finding anchors *)
  end_line : int;
      (** last line of the offending expression ([>= line]); used by
          suppression matching, never printed *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  rule : string;
  message : string;
  key : string;
      (** stable identity, independent of the message — non-empty
          only for interprocedural findings (e.g.
          ["engine clock Peer_engine.step"]) *)
}

val v :
  ?end_line:int ->
  ?key:string ->
  file:string ->
  line:int ->
  col:int ->
  rule:string ->
  string ->
  t
(** [end_line] defaults to [line]; [key] to [""]. *)

val of_location :
  ?span:Location.t ->
  ?key:string ->
  file:string ->
  rule:string ->
  Location.t ->
  string ->
  t
(** Position taken from [loc_start]; [end_line] from [span]'s (default
    the location's own) [loc_end] — pass the enclosing application as
    [span] so trailing suppressions on any line of a multi-line call
    still match. *)

val compare : t -> t -> int
val to_string : t -> string

val to_json : t -> string
(** One deterministic JSON object: [file], [line], [col], [rule],
    [message] — fixed field order, no whitespace variation. *)

val json_escape : string -> string
