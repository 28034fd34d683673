(** Per-site lint suppressions and analysis annotations.

    A suppression is a single-line comment of the form

    {v (* lint: allow <rule>[, <rule>...] — reason *) v}

    The separator before the reason may be an em dash [—], [--], or a
    colon. The reason is mandatory: a suppression without one is itself
    reported as a [lint-suppression] finding, as is one naming an
    unknown rule. Placement:

    - on the offending line: covers that line;
    - alone on its own line: covers the following line;
    - when the offending expression spans several lines: a trailing
      suppression on the line just above the expression, or on any line
      the expression spans, also covers it.

    A second comment form, [(* lint: parallel-safe *)], is an
    {e annotation} rather than a suppression: it marks the definition on
    the covered line (same line, or the next line when the comment is
    alone on its own) as a domain-safety entry point for the
    interprocedural analysis (see {!Interproc}).

    A third, [(* lint: no-static-state — reason *)], annotates an
    [external] whose primitive is foreign code: it asserts that the C
    keeps no static mutable state, which the call graph cannot read, so
    the reason is mandatory. Without it, a foreign primitive counts as
    reaching top-level mutable state.

    Suppressions that cover no finding at the end of a run are reported
    as [lint-suppression] findings themselves ({!dead}): stale
    suppressions would otherwise silently mask future regressions. *)

type t

val scan : known_rules:string list -> string -> t
(** [scan ~known_rules source] collects every suppression comment and
    [parallel-safe] or [no-static-state] annotation in [source].
    [known_rules] is used to diagnose typo'd rule names. *)

val allows : t -> rule:string -> ?end_line:int -> line:int -> unit -> bool
(** [allows t ~rule ~line ()] is true when a finding for [rule] at
    [line] is covered by a suppression; [end_line] (default [line]) is
    the last line of the offending expression and widens the match as
    described above. Marks the matching suppression as used (see
    {!dead}). *)

val errors : t -> (int * int * string) list
(** Malformed suppressions as [(line, col, message)], in source order. *)

val parallel_safe_covers : t -> line:int -> bool
(** Whether a [(* lint: parallel-safe *)] annotation covers [line]. *)

val no_static_state_covers : t -> line:int -> bool
(** Whether a reasoned [no-static-state] annotation covers [line]. *)

val dead : t -> (int * int * string list) list
(** Suppressions that {!allows} never matched, as
    [(line, col, rules)] in source order. Call after all passes have
    filtered their findings through {!allows}. *)
