(** Lint driver: parse sources, run the per-file rules and the
    interprocedural analysis, apply suppressions.

    Text output is one finding per line in [file:line:col rule message]
    form, sorted by (file, line, col, rule, message); [--json] emits a
    single deterministic JSON document instead. The exit status is
    non-zero as soon as there is a single finding, so
    [dune build @lint] fails the build on any violation. *)

val lint_project :
  ?manifest:string * string ->
  ?mli_missing:string list ->
  (string * string) list ->
  Finding.t list
(** [lint_project inputs] runs the whole pipeline over [(path, source)]
    pairs: per-file AST rules, then the cross-module {!Callgraph} with
    {!Interproc} boundary-purity and parallel-safety checks, then dead
    suppression detection. Pure with respect to the filesystem — the
    manifest ([?manifest] as [(path, contents)]) is passed in, and
    [?mli_missing] lists the paths whose [.mli] the caller
    found absent. Deterministic: same inputs, byte-identical findings. *)

val lint_source : path:string -> string -> Finding.t list
(** [lint_project] over a single in-memory file — no manifest or mli
    check. Usable on fixture strings in tests; interprocedural
    rules still run within the file (e.g. [parallel-safety]). *)

val lint_file : string -> Finding.t list
(** [lint_source] on the file's contents, plus the [mli-coverage] check
    for library modules. Unreadable files yield a [parse-error]
    finding. *)

val collect_files : string list -> string list
(** Recursively collect [.ml] files under the given roots (files are
    taken as-is), skipping [_build] and dot-directories wherever they
    appear, normalizing away leading [./], deduplicating, in sorted
    order. *)

val render_json : files:int -> Finding.t list -> string
(** The [--json] document:
    [{"tool": "vegvisir-lint", "version": 1, "files": N,
    "findings": [...]}] with a trailing newline. Byte-identical for
    identical findings. *)

val main : string list -> int
(** The CLI: [--list-rules], [--explain RULE], [--json],
    [--boundaries FILE], then roots. Without [--boundaries],
    [lint-boundaries.sexp] is picked up from the working directory when
    present. Returns the
    exit code (0 = clean, 1 = findings, 2 = usage error). *)
