let all =
  [
    ( "no-wall-clock",
      "OS time reads outside lib/cli/unix_compat.ml break reproducibility" );
    ( "no-global-random",
      "Stdlib.Random is unseeded global state; use Vegvisir_crypto.Rng" );
    ( "no-poly-compare",
      "structural comparison on abstract ids/hashes breaks convergence" );
    ( "no-unordered-iteration",
      "Hashtbl order leaks into wire bytes or experiment metrics" );
    ( "no-partial-stdlib",
      "partial stdlib functions raise instead of forcing a decision" );
    ( "engine-transport-purity",
      "lib/engine is sans-IO: no transport, OS, or console dependency" );
    ( "no-printf-outside-obs",
      "stdout writes in lib/* bypass the obs sinks; emit events instead" );
    ( "no-full-scan-hot-path",
      "whole-DAG traversals on gossip hot paths; use the incremental \
       indices" );
    ( "boundary-purity",
      "a purity-boundary entry point transitively reaches a forbidden effect" );
    ( "parallel-safety",
      "parallel-safe code transitively reaches top-level mutable state" );
    ("mli-coverage", "every lib module needs an explicit interface");
    ("parse-error", "file does not parse");
    ( "lint-suppression",
      "malformed or dead suppression comment (not suppressible)" );
    ( "boundary-manifest",
      "lint-boundaries.sexp does not parse (not suppressible)" );
  ]

let names = List.map fst all

let explanations =
  [
    ( "no-wall-clock",
      "Vegvisir replays must be bit-for-bit reproducible: the engine, \
       experiments, and traces all assume time is an input, not an ambient. \
       Unix.gettimeofday, Unix.time, and Sys.time read the OS clock, so any \
       call site outside lib/cli/unix_compat.ml (the single sanctioned \
       adapter, injected at the host edge) makes a run unrepeatable. Thread \
       a timestamp or a now:unit->float parameter instead." );
    ( "no-global-random",
      "Stdlib.Random draws from process-global, unseeded state, which \
       breaks replay and makes cross-replica experiments incomparable. All \
       entropy must flow through Vegvisir_crypto.Rng, a splittable, \
       explicitly seeded generator that is passed by value." );
    ( "no-poly-compare",
      "Polymorphic =, <>, compare, min, max (and List.mem/assoc, which use \
       them) compare structurally. On abstract ids, hashes, or anything \
       containing a closure or functorized map they are wrong or raise, and \
       two replicas can disagree. In lib/core and lib/crdt use the typed \
       equal/compare for the type (Hash_id.equal, Int.max, ...). Comparison \
       against a literal or constant constructor is exempt." );
    ( "no-unordered-iteration",
      "Hashtbl.iter/fold/to_seq visit bindings in hash-bucket order, which \
       varies with insertion history. In modules whose output is \
       order-sensitive (wire encoding, metrics, experiments, the engine's \
       effect lists, obs snapshots) that order leaks into bytes that must \
       be identical across replicas and runs. Sort the bindings or use an \
       ordered map." );
    ( "no-partial-stdlib",
      "List.hd/tl/nth and Option.get raise on empty or short input; \
       Filename.temp_file mutates global temp state. Library code must \
       force the decision at the call site: match explicitly or use the \
       _opt variant." );
    ( "engine-transport-purity",
      "lib/engine is sans-IO: it consumes typed inputs and returns typed \
       effects, and hosts (cli, simnet, tests) replay those effects against \
       a real transport. Any mention of Unix, a transport module, Sys, \
       channels, or the console inside the engine collapses that boundary \
       and makes the protocol logic untestable in isolation." );
    ( "no-printf-outside-obs",
      "Library code that prints to stdout bypasses the obs event bus, so \
       the output cannot be captured, filtered, or made deterministic by \
       the host. Emit an event through a vegvisir-obs sink; modules whose \
       documented contract is stdout carry a reasoned suppression." );
    ( "no-full-scan-hot-path",
      "Dag.topo_order/ancestors/descendants recompute a whole-DAG view. On \
       gossip hot paths (lib/engine, reconcile) that turns every message \
       into an O(n) walk; the incremental indices (Dag.topo_seq, Dag.below, \
       Dag.witness_set) exist precisely so hot paths stay O(delta). \
       Oracle and test-only call sites suppress with a reason." );
    ( "boundary-purity",
      "lint-boundaries.sexp declares purity boundaries: module scopes \
       whose entry points must not reach a forbidden effect (clock, \
       random, io, poly_compare, unordered_iter, mutates_global) through \
       ANY call chain, however many modules deep. The interprocedural \
       analysis builds the repo call graph, runs a bottom-up effect \
       fixpoint over its strongly connected components, and reports each \
       violating entry point with a shortest witness chain down to the \
       primitive. Fix the leak, or suppress at the entry point with a \
       reason." );
    ( "parallel-safety",
      "A definition annotated (* lint: parallel-safe *) is declared safe \
       to call from multiple domains. The analysis flags any such \
       definition that transitively reaches top-level mutable state (a ref, \
       Hashtbl, Buffer, queue, or written array at module level), with the \
       call chain ending at the state itself. Pass state explicitly, or \
       drop the annotation." );
    ( "mli-coverage",
      "Every lib/**/*.ml needs a matching .mli: interfaces are where \
       invariants are documented and accidental exports are caught." );
    ( "parse-error",
      "The file does not parse with the compiler's own parser, so no rule \
       can run on it. The finding carries the parser's message." );
    ( "lint-suppression",
      "A suppression comment is itself wrong: malformed (missing reason, \
       unknown rule, bad syntax) or dead (it matches no finding, so it \
       would silently mask a future regression). Fix or delete it. This \
       rule cannot be suppressed." );
    ( "boundary-manifest",
      "lint-boundaries.sexp is unreadable at the reported line. The \
       expected form is (boundary <name> (scope <path>...) (forbid \
       <effect>...)); see DESIGN.md section 7. This rule cannot be \
       suppressed." );
  ]

let explain rule = List.assoc_opt rule explanations

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)

let logical path =
  let parts =
    List.filter
      (fun s -> s <> "" && s <> "." && s <> "..")
      (String.split_on_char '/' path)
  in
  let roots = [ "lib"; "bin"; "examples"; "bench"; "test" ] in
  let rec strip = function
    | [] -> parts
    | hd :: _ as l when List.exists (String.equal hd) roots -> l
    | _ :: tl -> strip tl
  in
  strip parts

let rec has_prefix prefix l =
  match (prefix, l) with
  | [], _ -> true
  | p :: ps, x :: xs -> String.equal p x && has_prefix ps xs
  | _ :: _, [] -> false

let path_eq = List.equal String.equal

let mli_required path =
  has_prefix [ "lib" ] (logical path) && Filename.check_suffix path ".ml"

(* ------------------------------------------------------------------ *)
(* AST helpers                                                         *)

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

(* Matches Dag.f, Vegvisir.Dag.f, V.Dag.f, Dag.Oracle.f, ... — any
   qualified mention of [f] inside a [Dag] module (aliases included). *)
let rec dag_qualified fns parts =
  match parts with
  | "Dag" :: rest -> begin
    match rest with
    | [ fn ] -> List.exists (String.equal fn) fns
    | [ "Oracle"; fn ] -> List.exists (String.equal fn) fns
    | _ -> false
  end
  | _ :: rest -> dag_qualified fns rest
  | [] -> false

let bound_value_names structure =
  let tbl = Hashtbl.create 32 in
  let iter =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> Hashtbl.replace tbl txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  iter.structure iter structure;
  tbl

(* ------------------------------------------------------------------ *)
(* The primitive denylist                                              *)

(* Comparison against a literal or constant constructor is monomorphic in
   practice (ints, strings, [], None, ...) and cannot touch an abstract
   id, so neither no-poly-compare nor the effect analysis counts it. *)
let rec is_constant_like (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some arg) -> is_constant_like arg
  | Pexp_variant (_, None) -> true
  | Pexp_tuple es -> List.for_all is_constant_like es
  | _ -> false

let primitive_effects parts args : (Effect_sig.name * string) list =
  let prim = String.concat "." parts in
  match parts with
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    [ (Effect_sig.Clock, prim) ]
  | "Random" :: _ -> [ (Effect_sig.Random, prim) ]
  | "Unix" :: _ | "UnixLabels" :: _ | "In_channel" :: _ | "Out_channel" :: _
  | "Logs" :: _ ->
    [ (Effect_sig.Io, prim) ]
  | [ "Hashtbl";
      ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ] ->
    [ (Effect_sig.Unordered_iter, prim) ]
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_int"
      | "print_char" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "read_line" | "read_int"
      | "read_int_opt" | "open_in" | "open_in_bin" | "open_out"
      | "open_out_bin" | "close_in" | "close_out" | "close_in_noerr"
      | "close_out_noerr" | "input_line" | "input_char" | "input_byte"
      | "really_input_string" | "output_string" | "output_bytes"
      | "output_char" | "output_byte" | "flush" | "flush_all" ) ] ->
    [ (Effect_sig.Io, prim) ]
  | [ "Printf"; ("printf" | "eprintf" | "fprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline") ]
  | [ "Fmt"; ("pr" | "epr") ] ->
    [ (Effect_sig.Io, prim) ]
  | [ "Sys";
      ( "command" | "remove" | "rename" | "readdir" | "getenv" | "getenv_opt"
      | "file_exists" | "is_directory" | "mkdir" | "rmdir" | "chdir"
      | "getcwd" | "argv" ) ] ->
    [ (Effect_sig.Io, prim) ]
  | [ "Filename"; ("temp_file" | "open_temp_file") ] ->
    [ (Effect_sig.Io, prim) ]
  | [ ("=" | "<>" | "compare" | "min" | "max") ]
    when not (List.exists is_constant_like args) ->
    [ (Effect_sig.Poly_compare, prim) ]
  | [ "List"; ("mem" | "assoc" | "assoc_opt" | "mem_assoc") ]
    when not
           (match args with
           | key :: _ -> is_constant_like key
           | [] -> false) ->
    [ (Effect_sig.Poly_compare, prim) ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)

let check ~path structure =
  let lp = logical path in
  let wall_clock_on = not (path_eq lp [ "lib"; "cli"; "unix_compat.ml" ]) in
  let poly_on =
    has_prefix [ "lib"; "core" ] lp || has_prefix [ "lib"; "crdt" ] lp
  in
  let unordered_on =
    has_prefix [ "lib"; "core" ] lp
    || has_prefix [ "lib"; "net" ] lp
    || has_prefix [ "lib"; "experiments" ] lp
    || has_prefix [ "lib"; "engine" ] lp
    || has_prefix [ "lib"; "obs" ] lp
    || has_prefix [ "lib"; "cli" ] lp
  in
  let engine_on = has_prefix [ "lib"; "engine" ] lp in
  (* lib/obs owns rendering (sinks decide where bytes go) and lib/engine
     already forbids console writes via engine-transport-purity — but the
     obs health fold and its renderer return strings, never print, so
     they re-enter the printf scope; same for the span layer and the
     flight recorder, whose dumps are strings the caller writes. *)
  let printf_on =
    has_prefix [ "lib" ] lp
    && (not (has_prefix [ "lib"; "obs" ] lp))
    && not engine_on
    || path_eq lp [ "lib"; "obs"; "monitor.ml" ]
    || path_eq lp [ "lib"; "obs"; "health.ml" ]
    || path_eq lp [ "lib"; "obs"; "scoreboard.ml" ]
    || path_eq lp [ "lib"; "obs"; "span.ml" ]
    || path_eq lp [ "lib"; "obs"; "flight.ml" ]
  in
  let partial_on = has_prefix [ "lib" ] lp in
  let full_scan_on =
    has_prefix [ "lib"; "engine" ] lp
    || path_eq lp [ "lib"; "core"; "reconcile.ml" ]
    || path_eq lp [ "lib"; "core"; "sync_strategy.ml" ]
  in
  let bound = bound_value_names structure in
  let findings = ref [] in
  let span = ref None in
  let add loc rule message =
    findings :=
      Finding.of_location ?span:!span ~file:path ~rule loc message
      :: !findings
  in
  (* [args] is the (unlabelled view of the) application's arguments when
     the identifier is the head of an application, [] otherwise. *)
  let handle_ident ~args txt loc =
    let parts = strip_stdlib (flatten txt) in
    let name = String.concat "." parts in
    List.iter
      (fun (eff, _) ->
        match (eff : Effect_sig.name) with
        | Clock when wall_clock_on ->
          add loc "no-wall-clock"
            (name
           ^ " reads the OS clock; the only sanctioned call site is \
              Unix_compat.now in lib/cli/unix_compat.ml")
        | Random ->
          add loc "no-global-random"
            (name
           ^ " draws from unseeded global state; route all entropy through \
              Vegvisir_crypto.Rng")
        | Poly_compare when poly_on -> begin
          match parts with
          | [ op ] ->
            if not (Hashtbl.mem bound op) then
              add loc "no-poly-compare"
                ("polymorphic " ^ op
               ^ " silently compares structurally; use a typed \
                  equal/compare (e.g. Hash_id.equal, Int.max)")
          | _ ->
            add loc "no-poly-compare"
              (name
             ^ " uses polymorphic equality; use List.exists/List.find with \
                a typed equal")
        end
        | Unordered_iter when unordered_on ->
          add loc "no-unordered-iteration"
            (name
           ^ " iterates in nondeterministic order and this module's output \
              is order-sensitive; sort the result or use an ordered map")
        | Clock | Poly_compare | Unordered_iter | Io | Mutates_global -> ())
      (primitive_effects parts args);
    (if engine_on then
       match parts with
       | ( "Unix" | "UnixLabels" | "Unix_compat" | "Vegvisir_net" | "Simnet"
         | "Vegvisir_cli" | "Sys" | "In_channel" | "Out_channel" )
         :: _ ->
         add loc "engine-transport-purity"
           (name
          ^ " ties the engine to a transport or the OS; lib/engine is \
             sans-IO — hosts replay its effects instead")
       | [ ( "print_string" | "print_endline" | "print_newline" | "print_int"
           | "print_char" | "print_float" | "prerr_string" | "prerr_endline"
           | "prerr_newline" | "read_line" ) ]
       | [ "Printf"; ("printf" | "eprintf") ]
       | [ "Format"; ("printf" | "eprintf" | "print_string") ]
       | [ "Fmt"; ("pr" | "epr") ] ->
         add loc "engine-transport-purity"
           (name
          ^ " writes to the console from the sans-IO engine; emit a Trace \
             effect and let the host decide")
       | _ -> ());
    (if printf_on then
       match parts with
       | [ ( "print_string" | "print_endline" | "print_newline" | "print_int"
           | "print_char" | "print_float" ) ]
       | [ "Printf"; "printf" ]
       | [ "Format"; ("printf" | "print_string") ]
       | [ "Fmt"; "pr" ] ->
         add loc "no-printf-outside-obs"
           (name
          ^ " writes to stdout from library code; render through a \
             vegvisir-obs sink, or suppress where stdout is the module's \
             documented contract")
       | _ -> ());
    (if partial_on then
       match parts with
       | [ "List"; ("hd" | "tl" | "nth") ] | [ "Option"; "get" ] ->
         add loc "no-partial-stdlib"
           (name
          ^ " raises on empty/short input; use the _opt variant or match \
             explicitly")
       | [ "Filename"; ("temp_file" | "open_temp_file") ] ->
         add loc "no-partial-stdlib"
           (name ^ " touches global mutable temp state; thread paths explicitly")
       | _ -> ());
    if full_scan_on && dag_qualified [ "topo_order"; "ancestors"; "descendants" ] parts
    then
      add loc "no-full-scan-hot-path"
        (name
       ^ " recomputes a whole-DAG view on a gossip hot path; use the \
          incremental indices (Dag.topo_seq, Dag.below, Dag.witness_set) \
          or suppress with a reason for oracle/test-only sites")
  in
  (* [open Simnet], [module S = Simnet], functor arguments, ... — any
     module-expression mention of a transport module in lib/engine, which
     plain value-identifier scanning would miss. *)
  let handle_module_ident txt loc =
    if engine_on then
      match flatten txt with
      | ( "Unix" | "UnixLabels" | "Unix_compat" | "Vegvisir_net" | "Simnet"
        | "Vegvisir_cli" )
        :: _ ->
        add loc "engine-transport-purity"
          (String.concat "." (flatten txt)
          ^ " ties the engine to a transport; lib/engine is sans-IO — hosts \
             replay its effects instead")
      | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      module_expr =
        (fun self m ->
          (match m.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident { txt; loc } -> handle_module_ident txt loc
          | _ -> ());
          Ast_iterator.default_iterator.module_expr self m);
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, args) ->
            (* The whole application is the offending span, so a trailing
               suppression on any of its lines covers the finding. *)
            span := Some e.Parsetree.pexp_loc;
            handle_ident ~args:(List.map snd args) txt loc;
            span := None;
            List.iter (fun (_, a) -> self.expr self a) args
          | Parsetree.Pexp_ident { txt; loc } ->
            handle_ident ~args:[] txt loc
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter structure;
  List.rev !findings
