(** The vegvisir-lint rule set.

    Eight rules guard the repo's global invariants — bit-for-bit
    reproducibility (all entropy and time flow through seeded,
    deterministic sources), cross-replica convergence (no structural
    comparison or hash-table iteration order leaking into consensus or
    wire state), and the sans-IO layering of the protocol engine:

    - [no-wall-clock]: [Unix.gettimeofday]/[Unix.time]/[Sys.time] are
      banned everywhere except [lib/cli/unix_compat.ml].
    - [no-global-random]: [Stdlib.Random] is banned everywhere; entropy
      must come from [Vegvisir_crypto.Rng].
    - [no-poly-compare]: bare [=], [<>], [compare], [min], [max],
      [List.mem], [List.assoc] (and [_opt]/[mem_assoc] variants) are
      flagged in [lib/core] and [lib/crdt] unless an operand is a
      literal/constant constructor or the file binds the name itself.
    - [no-unordered-iteration]: [Hashtbl.iter]/[fold]/[to_seq] are
      flagged in modules whose output is order-sensitive: [lib/core/*]
      and [lib/net/*] (wire bytes, intake commit order and the
      simulator's arrival record feed the pinned E-series),
      [lib/experiments/*], [lib/engine/*], whose effect lists must
      replay identically, [lib/obs/*], whose snapshots and traces must
      be byte-stable, and [lib/cli/*], which renders journals and
      schedules sessions.
    - [no-partial-stdlib]: [List.hd]/[List.tl]/[List.nth]/[Option.get]/
      [Filename.temp_file] are flagged under [lib/].
    - [engine-transport-purity]: [lib/engine/*] may not mention a
      transport or the OS — [Unix], [Unix_compat], [Vegvisir_net]/
      [Simnet], [Vegvisir_cli], [Sys], [In_channel]/[Out_channel] —
      nor print to the console; both value identifiers
      and module expressions ([open]/aliases/functor arguments) are
      checked. The engine is sans-IO: hosts replay its typed effects.
    - [no-printf-outside-obs]: stdout writers ([print_string] family,
      [Printf.printf], [Format.printf], [Fmt.pr]) are flagged in [lib/*]
      except [lib/obs] (whose sinks own rendering) and [lib/engine]
      (already covered by [engine-transport-purity]); modules whose
      documented contract is stdout carry a reasoned suppression.
    - [mli-coverage]: every [lib/**/*.ml] needs a matching [.mli]
      (checked by the driver via {!mli_required}).

    Two interprocedural rules run over the whole-repo call graph rather
    than a single file (see {!Callgraph} and {!Interproc}):

    - [boundary-purity]: an entry point of a purity boundary declared in
      [lint-boundaries.sexp] transitively reaches a forbidden effect;
      the finding carries a witness call chain.
    - [parallel-safety]: a definition annotated
      [(* lint: parallel-safe *)] transitively reaches top-level mutable
      state.

    Three pseudo-rules report tool-level problems: [parse-error] (a
    file that does not parse), [lint-suppression] (a malformed, typo'd,
    or dead suppression comment), and [boundary-manifest] (an unreadable
    boundary manifest). None of the three is suppressible. *)

val all : (string * string) list
(** [(name, one-line description)] for every rule, pseudo-rules
    included, in documentation order. *)

val names : string list

val explain : string -> string option
(** A paragraph-length explanation of a rule — its rationale and the
    sanctioned fix — for [vegvisir-lint --explain RULE]. [None] for
    unknown rules. *)

val check : path:string -> Parsetree.structure -> Finding.t list
(** AST-level rules only (everything except [mli-coverage]). [path]
    selects which rules apply; it is interpreted from the first
    [lib]/[bin]/[examples]/[bench]/[test] segment, so absolute and
    [_build]-relative paths both scope correctly. *)

val primitive_effects :
  string list -> Parsetree.expression list -> (Effect_sig.name * string) list
(** The one primitive denylist: the effect, if any, of a reference to
    [parts] (a [Stdlib]-stripped path that resolves to no repo
    definition) applied to [args], paired with the dotted primitive
    name. The four per-file rules above report its [Clock], [Random],
    [Poly_compare] and [Unordered_iter] answers in their scopes;
    {!Callgraph} seeds every effect signature from it. A comparison
    whose operand (or, for [List.mem] and kin, whose key) is a literal
    or constant constructor has no effect. *)

val mli_required : string -> bool
(** Whether [path] is a library module that the [mli-coverage] rule
    requires an interface for. *)

val logical : string -> string list
(** [path] reduced to segments starting at the first
    [lib]/[bin]/[examples]/[bench]/[test] component, so absolute and
    [_build]-relative spellings of the same file compare equal. *)

val has_prefix : string list -> string list -> bool
(** Segment-wise prefix test on {!logical} paths. *)
