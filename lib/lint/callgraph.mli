(** Cross-module call graph over the linted tree, with per-function
    effect signatures computed by a bottom-up fixpoint over strongly
    connected components.

    Nodes are top-level [let] definitions and [external] declarations
    (including those inside [module M = struct .. end] submodules),
    identified by a fully qualified id such as ["Vegvisir.Dag.add"] or
    ["Vegvisir_cli.Node_store.load"] — library wrapper module, unit,
    optional submodule chain, then the value name. Units outside [lib/]
    (bin, bench, examples, test fixtures) have no wrapper and are
    addressed as ["Main.run"].

    References are resolved through module aliases
    ([module V = Vegvisir]), functor applications normalized by
    dropping the trailing [Make] ([module SMap = Map.Make (String)]
    aliases [SMap] to [Map]), [open]s (both file-level and local,
    including [M.(e)]), and functor-free [include]s. Locally bound
    names — function parameters, [let]s, [match] patterns — are scope
    tracked and never produce edges.

    Unresolved references are classified against primitive denylists
    and seed the effect lattice: [Clock] (wall-clock reads), [Random],
    [Io] (printing, channels, Unix, Sys process/file ops, Logs),
    [Poly_compare] (bare polymorphic [=]/[compare]/... on non-constant
    arguments), [Unordered_iter] (Hashtbl traversal). Top-level mutable
    bindings (refs, Hashtbls, Buffers, queues, arrays that are written
    anywhere in the tree) carry [Mutates_global] as an own-effect, so
    witness chains terminate at the state itself. So does an [external]
    naming foreign code (a primitive without a leading [%]), unless a
    reasoned [no-static-state] annotation ({!Suppress}) covers its
    declaration: the C behind it is invisible to the analysis.

    Known blind spots, by design (the analysis is syntactic): calls
    through first-class modules ([module Log = (val Logs.src_log ...)]),
    functor bodies, and closures stored in data structures (e.g. obs
    bus sinks) contribute no edges. *)

type t

val build : (string * Parsetree.structure * Suppress.t) list -> t
(** [build files] constructs the graph from parsed units (path,
    structure, suppressions — the latter supplies [parallel-safe]
    annotations) and runs the effect fixpoint. *)

type info = {
  id : string;
  file : string;
  line : int;  (** first line of the defining binding *)
  end_line : int;
  parallel_safe : bool;
      (** annotated [(* lint: parallel-safe *)] at the definition *)
  effects : Effect_sig.t;  (** transitive (fixpoint) effects *)
}

val nodes : t -> info list
(** All definitions, sorted by id. *)

val effects_of : t -> string -> Effect_sig.t
(** Transitive effects of a node id; {!Effect_sig.empty} if unknown. *)

val witness_chain :
  t -> from:string -> Effect_sig.name -> (string list * string) option
(** [witness_chain t ~from eff] is a shortest call chain (BFS over
    sorted neighbours, hence deterministic) from [from] to a node whose
    {e own} effects include [eff], together with the primitive (or
    mutable binding) that seeded it. [None] when [from] does not reach
    [eff] — callers should only ask after checking {!effects_of}. *)

val node_count : t -> int
val edge_count : t -> int

val namespace_of_path : string -> string
(** The library wrapper module for a source path (["Vegvisir_crypto"]
    for [lib/crypto/...]; [""] outside [lib/]). Exposed for tests. *)
