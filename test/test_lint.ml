(* vegvisir-lint self-tests: every rule fires on a known-bad fixture,
   stays silent on a known-good one, and respects suppressions. Fixtures
   are OCaml source embedded as strings and parsed through the same
   compiler-libs front end the real tool uses; the [~path] argument
   drives rule scoping exactly as on disk. *)

let lint path src = Veglint.Driver.lint_source ~path src

let rules_of fs = List.map (fun (f : Veglint.Finding.t) -> f.rule) fs

let fires rule path src =
  List.exists (fun (f : Veglint.Finding.t) -> String.equal f.rule rule)
    (lint path src)

let check_fires rule path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires in %s" rule path)
    true (fires rule path src)

let check_silent ?rule path src =
  match rule with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "%s silent in %s" r path)
      false (fires r path src)
  | None ->
    Alcotest.(check (list string))
      (Printf.sprintf "no findings in %s" path)
      [] (rules_of (lint path src))

(* ------------------------------------------------------------------ *)

let test_wall_clock () =
  check_fires "no-wall-clock" "lib/net/simnet.ml"
    "let t = Unix.gettimeofday ()";
  check_fires "no-wall-clock" "lib/core/block.ml" "let t = Sys.time ()";
  check_fires "no-wall-clock" "bench/main.ml" "let t = Unix.time ()";
  (* The one sanctioned call site. *)
  check_silent "lib/cli/unix_compat.ml" "let now () = Unix.gettimeofday ()";
  (* Unrelated Unix calls stay legal. *)
  check_silent "lib/cli/node_store.ml" "let f p = Unix.mkdir p 0o755"

let test_global_random () =
  check_fires "no-global-random" "lib/net/gossip.ml" "let x = Random.int 10";
  check_fires "no-global-random" "examples/quickstart.ml"
    "let () = Random.self_init ()";
  check_fires "no-global-random" "lib/crypto/rng.ml"
    "let s = Random.State.make [| 1 |]";
  check_fires "no-global-random" "lib/core/node.ml"
    "let x = Stdlib.Random.bits ()";
  check_silent "lib/net/gossip.ml"
    "let x rng = Vegvisir_crypto.Rng.int rng 10"

let test_poly_compare () =
  check_fires "no-poly-compare" "lib/core/dag.ml" "let f a b = a = b";
  check_fires "no-poly-compare" "lib/crdt/gset.ml" "let f a b = a <> b";
  check_fires "no-poly-compare" "lib/core/reconcile.ml"
    "let s l = List.sort compare l";
  check_fires "no-poly-compare" "lib/core/dag.ml" "let f a b = max a b";
  check_fires "no-poly-compare" "lib/crdt/orset.ml" "let f x l = List.mem x l";
  check_fires "no-poly-compare" "lib/crdt/schema.ml"
    "let f k l = List.assoc k l";
  (* Out of scope: only lib/core and lib/crdt are hash-id territory. *)
  check_silent ~rule:"no-poly-compare" "lib/net/topology.ml"
    "let f a b = a = b";
  (* Comparison against a literal/constant constructor is exempt. *)
  check_silent "lib/core/dag.ml" "let f a = a = 3";
  check_silent "lib/core/block.ml" "let f a = a <> None";
  check_silent "lib/core/reconcile.ml" "let f a = max a 1";
  check_silent "lib/crdt/schema.ml" {|let f l = List.mem "x" l|};
  (* A file-local typed definition shadows the polymorphic one. *)
  check_silent "lib/core/hash_id.ml"
    "let compare = String.compare\nlet sorted l = List.sort compare l";
  (* Typed stdlib comparisons are the recommended spelling. *)
  check_silent "lib/core/dag.ml"
    "let f a b = Int.max a b\nlet g a b = Hash_id.equal a b"

let test_unordered_iteration () =
  check_fires "no-unordered-iteration" "lib/experiments/exp_energy.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h";
  (* The engine's effect lists must replay identically everywhere. *)
  check_fires "no-unordered-iteration" "lib/engine/peer_engine.ml"
    "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h []";
  check_fires "no-unordered-iteration" "lib/core/wire.ml"
    "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h []";
  check_fires "no-unordered-iteration" "lib/obs/registry.ml"
    "let f h = Hashtbl.fold (fun _ v a -> v + a) h 0";
  check_fires "no-unordered-iteration" "lib/net/metrics.ml"
    "let f h = Hashtbl.to_seq h";
  (* The CLI renders journals and summaries: order-sensitive output. *)
  check_fires "no-unordered-iteration" "lib/cli/node_store.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h";
  check_fires "no-unordered-iteration" "lib/cli/event_loop.ml"
    "let f h = Hashtbl.to_seq_keys h";
  (* The sync protocol encodes wire messages and orders merged blocks:
     hash-order iteration there would break byte-identical seeded runs. *)
  check_fires "no-unordered-iteration" "lib/core/reconcile.ml"
    "let f h = Hashtbl.fold (fun _ b acc -> b :: acc) h []";
  check_fires "no-unordered-iteration" "lib/core/sync_strategy.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h";
  check_silent ~rule:"no-unordered-iteration" "lib/core/sync_strategy.ml"
    "let f h = Hashtbl.to_seq h (* lint: allow no-unordered-iteration \
     \xe2\x80\x94 fixture *)";
  (* Span ids and flight dumps must render byte-identically: hash-order
     iteration in either would break same-seed determinism. *)
  check_fires "no-unordered-iteration" "lib/obs/span.ml"
    "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h []";
  check_fires "no-unordered-iteration" "lib/obs/flight.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h";
  check_silent ~rule:"no-unordered-iteration" "lib/obs/span.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h (* lint: allow \
     no-unordered-iteration \xe2\x80\x94 fixture *)";
  (* Order-insensitive modules may use hash tables freely. *)
  check_silent ~rule:"no-unordered-iteration" "lib/core/dag.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h";
  (* Point lookups don't iterate; only traversals are flagged. *)
  check_silent ~rule:"no-unordered-iteration" "lib/cli/node_store.ml"
    "let f h k = Hashtbl.find_opt h k";
  (* A reasoned suppression covers a sanctioned traversal. *)
  check_silent ~rule:"no-unordered-iteration" "lib/cli/node_store.ml"
    "let f h = Hashtbl.iter (fun _ _ -> ()) h (* lint: allow \
     no-unordered-iteration \xe2\x80\x94 fixture *)";
  (* The event-loop host schedules sessions and timers: a hash-order
     traversal there would make the wire schedule nondeterministic. *)
  check_fires "no-unordered-iteration" "lib/cli/event_loop.ml"
    "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h []";
  check_fires "no-unordered-iteration" "lib/cli/timer_wheel.ml"
    "let f h = Hashtbl.to_seq h";
  (* ...which is why the host iterates ordered maps instead. *)
  check_silent ~rule:"no-unordered-iteration" "lib/cli/event_loop.ml"
    "module M = Map.Make (Int)\n\
     let f m = M.fold (fun _ v acc -> v :: acc) m []";
  check_silent ~rule:"no-unordered-iteration" "lib/cli/event_loop.ml"
    "let f h = Hashtbl.fold (fun _ v acc -> v :: acc) h [] (* lint: \
     allow no-unordered-iteration \xe2\x80\x94 fixture *)";
  (* Ordered containers are always fine. *)
  check_silent "lib/net/metrics.ml" "let f m = SMap.fold (fun _ v a -> v + a) m 0"

let test_partial_stdlib () =
  check_fires "no-partial-stdlib" "lib/net/link.ml" "let f l = List.hd l";
  check_fires "no-partial-stdlib" "lib/crypto/mss.ml" "let f l = List.nth l 3";
  check_fires "no-partial-stdlib" "lib/cli/node_store.ml"
    "let f o = Option.get o";
  check_fires "no-partial-stdlib" "lib/net/scenario.ml" "let f l = List.tl l";
  (* Executables and the bench harness may fail fast. *)
  check_silent ~rule:"no-partial-stdlib" "bin/experiments.ml"
    "let f l = List.hd l";
  check_silent "lib/net/link.ml"
    "let f l = Option.value (List.nth_opt l 0) ~default:0"

let test_engine_purity () =
  (* Value identifiers from transport/OS modules. *)
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "let f net = Simnet.send net 0";
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "let f () = Unix.sleep 1";
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "let f net = Vegvisir_net.Simnet.now net";
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "let t () = Unix_compat.now ()";
  (* Module expressions: opens and aliases count as dependencies too. *)
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "open Vegvisir_net\nlet x = 1";
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "module S = Simnet\nlet x = 1";
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    "let f () = let open Unix_compat in now ()";
  (* Console output must leave as a Trace effect instead. *)
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    {|let f () = print_endline "dbg"|};
  check_fires "engine-transport-purity" "lib/engine/peer_engine.ml"
    {|let f () = Printf.printf "%d" 1|};
  (* The chain core and pure pretty-printing stay legal. *)
  check_silent "lib/engine/peer_engine.ml"
    "open Vegvisir\nlet f ppf = Fmt.pf ppf \"ok\"";
  (* The rule scopes to lib/engine only: transports obviously may use
     transports. *)
  check_silent ~rule:"engine-transport-purity" "lib/net/gossip.ml"
    "let f net = Simnet.send net 0";
  check_silent ~rule:"engine-transport-purity" "lib/cli/live_sync.ml"
    "let t () = Unix_compat.now ()"

let test_printf_outside_obs () =
  check_fires "no-printf-outside-obs" "lib/net/gossip.ml"
    {|let f () = print_endline "dbg"|};
  check_fires "no-printf-outside-obs" "lib/core/dag.ml"
    {|let f () = Printf.printf "%d" 1|};
  check_fires "no-printf-outside-obs" "lib/cli/node_store.ml"
    {|let f () = print_string "x"|};
  check_fires "no-printf-outside-obs" "lib/experiments/report.ml"
    {|let f () = print_newline ()|};
  (* lib/obs owns rendering; its sinks may write. *)
  check_silent ~rule:"no-printf-outside-obs" "lib/obs/sink.ml"
    {|let f () = print_string "line"|};
  (* ...but the health fold and renderer return strings, never print. *)
  check_fires "no-printf-outside-obs" "lib/obs/monitor.ml"
    {|let f () = print_endline "dbg"|};
  check_fires "no-printf-outside-obs" "lib/obs/health.ml"
    {|let f () = Printf.printf "%d" 1|};
  check_silent ~rule:"no-printf-outside-obs" "lib/obs/health.ml"
    "let f s = print_string s (* lint: allow no-printf-outside-obs \
     \xe2\x80\x94 fixture *)";
  (* ...likewise the span layer and flight recorder: dumps are strings
     the caller writes, never direct prints. *)
  check_fires "no-printf-outside-obs" "lib/obs/span.ml"
    {|let f () = print_string "{\"trace\":1}"|};
  check_fires "no-printf-outside-obs" "lib/obs/flight.ml"
    {|let f () = Printf.printf "%d events" 3|};
  check_silent ~rule:"no-printf-outside-obs" "lib/obs/flight.ml"
    "let f s = print_string s (* lint: allow no-printf-outside-obs \
     \xe2\x80\x94 fixture *)";
  (* lib/engine console writes are engine-transport-purity's finding. *)
  check_silent ~rule:"no-printf-outside-obs" "lib/engine/peer_engine.ml"
    {|let f () = print_endline "dbg"|};
  (* The event-loop host multiplexes sockets, not the console: session
     telemetry goes through obs events, never stray prints. *)
  check_fires "no-printf-outside-obs" "lib/cli/event_loop.ml"
    {|let f () = print_endline "session done"|};
  check_fires "no-printf-outside-obs" "lib/cli/event_loop.ml"
    {|let f n = Printf.printf "%d active" n|};
  check_silent ~rule:"no-printf-outside-obs" "lib/cli/event_loop.ml"
    {|let f e = prerr_endline e|};
  check_silent ~rule:"no-printf-outside-obs" "lib/cli/event_loop.ml"
    "let f () = print_endline \"drained\" (* lint: allow \
     no-printf-outside-obs \xe2\x80\x94 fixture *)";
  (* Executables own their stdout; the rule scopes to lib/*. *)
  check_silent ~rule:"no-printf-outside-obs" "bin/vegvisir_cli.ml"
    {|let f () = print_endline "ok"|};
  check_silent ~rule:"no-printf-outside-obs" "bench/main.ml"
    {|let f () = Printf.printf "%d" 1|};
  (* stderr is not stdout: diagnostics stay legal. *)
  check_silent "lib/net/gossip.ml" {|let f () = Printf.eprintf "%d" 1|};
  (* A reasoned suppression covers a sanctioned printer. *)
  check_silent "lib/experiments/report.ml"
    "let f s = print_string s (* lint: allow no-printf-outside-obs \
     \xe2\x80\x94 stdout is the contract *)"

let test_full_scan_hot_path () =
  check_fires "no-full-scan-hot-path" "lib/engine/peer_engine.ml"
    "let f dag = Dag.topo_order dag";
  check_fires "no-full-scan-hot-path" "lib/engine/peer_engine.ml"
    "let f dag h = Dag.ancestors dag h";
  check_fires "no-full-scan-hot-path" "lib/core/reconcile.ml"
    "let f dag h = Dag.descendants dag h";
  (* Module aliases and full qualification are caught too. *)
  check_fires "no-full-scan-hot-path" "lib/engine/peer_engine.ml"
    "let f dag = Vegvisir.Dag.topo_order dag";
  check_fires "no-full-scan-hot-path" "lib/engine/peer_engine.ml"
    "let f dag = Dag.Oracle.topo_order dag";
  (* The incremental accessors are the sanctioned replacements. *)
  check_silent ~rule:"no-full-scan-hot-path" "lib/engine/peer_engine.ml"
    "let f dag = Dag.topo_seq dag";
  check_silent ~rule:"no-full-scan-hot-path" "lib/core/reconcile.ml"
    "let f dag hs = Dag.below dag hs";
  (* Strategy responders run on every request: full-replica scans are
     the hot-path mistake the redesign exists to kill. *)
  check_fires "no-full-scan-hot-path" "lib/core/sync_strategy.ml"
    "let f dag = Dag.topo_order dag";
  check_silent ~rule:"no-full-scan-hot-path" "lib/core/sync_strategy.ml"
    "let f dag = Dag.topo_seq dag";
  (* Cold paths (witness oracle, persistence, experiments) are out of
     scope. *)
  check_silent ~rule:"no-full-scan-hot-path" "lib/core/witness.ml"
    "let f dag h = Dag.descendants dag h";
  check_silent ~rule:"no-full-scan-hot-path" "lib/experiments/exp_cluster.ml"
    "let f dag = Dag.topo_order dag";
  (* A reasoned suppression covers an oracle-only site. *)
  check_silent ~rule:"no-full-scan-hot-path" "lib/core/reconcile.ml"
    "let f dag = Dag.topo_order dag (* lint: allow no-full-scan-hot-path \
     \xe2\x80\x94 oracle for the reply filter *)"

let test_suppression () =
  (* Same-line suppression. *)
  check_silent "lib/core/dag.ml"
    "let f a b = a = b (* lint: allow no-poly-compare \xe2\x80\x94 fixture *)";
  (* Standalone suppression covers the following line. *)
  check_silent "lib/core/dag.ml"
    "(* lint: allow no-poly-compare \xe2\x80\x94 fixture *)\nlet f a b = a = b";
  (* ASCII separators work too. *)
  check_silent "lib/core/dag.ml"
    "let f a b = a = b (* lint: allow no-poly-compare -- fixture *)";
  (* A suppression only covers the rules it names... *)
  check_fires "no-global-random" "lib/core/dag.ml"
    "let f a b = a = b && Random.bool () (* lint: allow no-poly-compare \
     \xe2\x80\x94 fixture *)";
  (* ...and only its own line(s). *)
  check_fires "no-poly-compare" "lib/core/dag.ml"
    "(* lint: allow no-poly-compare \xe2\x80\x94 fixture *)\nlet g = ()\n\
     let f a b = a = b";
  (* Reasons are mandatory. *)
  check_fires "lint-suppression" "lib/core/dag.ml"
    "let f a b = a = b (* lint: allow no-poly-compare *)";
  (* Unknown rule names are diagnosed, not silently ignored. *)
  check_fires "lint-suppression" "lib/core/dag.ml"
    "let x = 1 (* lint: allow no-such-rule \xe2\x80\x94 typo *)"

let test_parse_error () =
  check_fires "parse-error" "lib/core/broken.ml" "let let = = in";
  check_silent "lib/core/fine.ml" "let x = 1"

let test_output_format () =
  match lint "lib/core/dag.ml" "let f a b =\n  a = b" with
  | [ f ] ->
    let s = Veglint.Finding.to_string f in
    let prefix = "lib/core/dag.ml:2:4 no-poly-compare " in
    Alcotest.(check bool)
      "file:line:col rule message shape" true
      (String.length s > String.length prefix
      && String.equal (String.sub s 0 (String.length prefix)) prefix)
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Interprocedural analysis                                            *)

let project = Veglint.Driver.lint_project

let find_rule rule fs =
  List.filter (fun (f : Veglint.Finding.t) -> String.equal f.rule rule) fs

let msg_contains needle (f : Veglint.Finding.t) =
  let n = String.length needle and m = String.length f.message in
  let rec go i = i + n <= m && (String.sub f.message i n = needle || go (i + 1)) in
  go 0

(* The acceptance fixture: a wall-clock read laundered through two
   intermediate modules, none of which trips any per-file rule — the
   engine only mentions lib/core, the core hop only mentions lib/cli,
   and the clock itself sits at the one sanctioned per-file call site
   (Unix_compat.now). Only the cross-module effect fixpoint can see
   that the engine entry point reaches the clock. *)
let laundering_files =
  [
    ("lib/cli/unix_compat.ml", "let now () = Unix.gettimeofday ()\n");
    ("lib/cli/wrap_one.ml", "let stamp () = Unix_compat.now ()\n");
    ( "lib/core/timeutil.ml",
      "module W1 = Vegvisir_cli.Wrap_one\nlet tick () = W1.stamp ()\n" );
    ( "lib/engine/entry.ml",
      "open Vegvisir\nlet step () = Timeutil.tick ()\n" );
  ]

let engine_manifest =
  ( "lint-boundaries.sexp",
    "(boundary engine (scope lib/engine) (forbid clock random io))\n" )

let test_effect_laundering () =
  (* Per-file rules alone are blind to the chain. *)
  Alcotest.(check (list string))
    "per-file rules see nothing" []
    (rules_of (project laundering_files));
  (* The boundary analysis reports the entry point with the full witness
     chain down to the primitive. *)
  let fs = project ~manifest:engine_manifest laundering_files in
  match find_rule "boundary-purity" fs with
  | [ f ] ->
    Alcotest.(check string) "at the engine entry" "lib/engine/entry.ml" f.file;
    Alcotest.(check string) "stable key" "engine clock Vegvisir_engine.Entry.step" f.key;
    Alcotest.(check bool) "full witness chain" true
      (msg_contains
         "Vegvisir_engine.Entry.step -> Vegvisir.Timeutil.tick -> \
          Vegvisir_cli.Wrap_one.stamp -> Vegvisir_cli.Unix_compat.now -> \
          Unix.gettimeofday"
         f)
  | fs -> Alcotest.failf "expected one boundary-purity finding, got %d" (List.length fs)

(* A unit's own submodules are resolved before other units: an engine
   entry reaching a clock read through [Sub.f], and through an alias of
   [Sub], is reported with the chain through both. *)
let test_submodule_resolution () =
  let files =
    [
      ( "lib/engine/entry.ml",
        "module Sub = struct\n\
        \  let f () = Unix.gettimeofday ()\n\
         end\n\
         module A = Sub\n\
         let g () = A.f ()\n\
         let step () = Sub.f () +. g ()\n" );
    ]
  in
  let fs = find_rule "boundary-purity" (project ~manifest:engine_manifest files) in
  match
    List.find_opt
      (fun (f : Veglint.Finding.t) -> f.key = "engine clock Vegvisir_engine.Entry.step")
      fs
  with
  | Some f ->
    Alcotest.(check bool) "chain through Sub.f" true
      (msg_contains
         "Vegvisir_engine.Entry.step -> Vegvisir_engine.Entry.Sub.f -> \
          Unix.gettimeofday"
         f);
    Alcotest.(check bool) "the alias resolves too" true
      (List.exists
         (fun (f : Veglint.Finding.t) ->
           f.key = "engine clock Vegvisir_engine.Entry.g"
           && msg_contains "Vegvisir_engine.Entry.g -> Vegvisir_engine.Entry.Sub.f" f)
         fs)
  | None -> Alcotest.fail "no boundary-purity finding at Entry.step"

let test_fixpoint_mutual_recursion () =
  (* A clock read inside a mutually recursive pair: the SCC fixpoint
     must assign the effect to every member of the cycle and to callers
     of the cycle, and must terminate. *)
  let files =
    [
      ( "lib/net/loopy.ml",
        "let rec ping n = if n = 0 then 0 else pong (n - 1)\n\
         and pong n = ping (n - 1) + int_of_float (Unix.gettimeofday ())\n\
         let outsider () = ping 3\n" );
    ]
  in
  let manifest =
    ("m.sexp", "(boundary net (scope lib/net) (forbid clock))\n")
  in
  let fs = find_rule "boundary-purity" (project ~manifest files) in
  let flagged =
    List.sort String.compare
      (List.map (fun (f : Veglint.Finding.t) -> f.key) fs)
  in
  Alcotest.(check (list string))
    "every cycle member and caller is flagged"
    [
      "net clock Vegvisir_net.Loopy.outsider";
      "net clock Vegvisir_net.Loopy.ping";
      "net clock Vegvisir_net.Loopy.pong";
    ]
    flagged;
  (* The chain from outside the cycle passes through it to the prim. *)
  match
    List.find_opt
      (fun (f : Veglint.Finding.t) ->
        f.key = "net clock Vegvisir_net.Loopy.outsider")
      fs
  with
  | Some f ->
    Alcotest.(check bool) "witness chain through the cycle" true
      (msg_contains "Vegvisir_net.Loopy.outsider -> " f
      && msg_contains "Unix.gettimeofday" f)
  | None -> Alcotest.fail "outsider finding missing"

let test_manifest_errors () =
  let files = [ ("lib/net/a.ml", "let x = 1\n") ] in
  let check_error manifest_src expected =
    let fs =
      find_rule "boundary-manifest"
        (project ~manifest:("m.sexp", manifest_src) files)
    in
    Alcotest.(check bool)
      (Printf.sprintf "manifest error %S" expected)
      true
      (List.exists (msg_contains expected) fs)
  in
  check_error "(boundary x (scope lib/net))" "no (forbid ...)";
  check_error "(boundary x (forbid clock))" "no (scope ...)";
  check_error "(boundary x (scope lib/net) (forbid entropy))"
    "unknown effect \"entropy\"";
  check_error "(boundary x (scope lib/net) (forbid clock)"
    "unclosed parenthesis";
  check_error "stray" "expected a (boundary ...) form";
  (* A malformed boundary doesn't disable a well-formed one. *)
  let fs =
    project
      ~manifest:
        ( "m.sexp",
          "(boundary bad (scope lib/net))\n\
           (boundary good (scope lib/net) (forbid clock))\n" )
      [ ("lib/net/a.ml", "let t () = Unix.gettimeofday ()\n") ]
  in
  Alcotest.(check bool) "good boundary still applies" true
    (find_rule "boundary-purity" fs <> [])

let test_parallel_safety () =
  (* An annotated function reaching a top-level Hashtbl through a
     helper is flagged, with the chain ending at the state itself. *)
  let bad =
    "let table : (string, int) Hashtbl.t = Hashtbl.create 8\n\
     let lookup k = Hashtbl.find_opt table k\n\n\
     (* lint: parallel-safe *)\n\
     let hash k = lookup k\n"
  in
  (match find_rule "parallel-safety" (lint "lib/crypto/cachey.ml" bad) with
  | [ f ] ->
    Alcotest.(check int) "at the annotated definition" 5 f.line;
    Alcotest.(check bool) "chain ends at the state" true
      (msg_contains
         "Vegvisir_crypto.Cachey.hash -> Vegvisir_crypto.Cachey.lookup -> \
          Vegvisir_crypto.Cachey.table -> top-level Hashtbl.t"
         f)
  | fs ->
    Alcotest.failf "expected one parallel-safety finding, got %d"
      (List.length fs));
  (* A top-level array that is never written is a constant table, not
     shared mutable state (e.g. Sha256.k). *)
  check_silent ~rule:"parallel-safety" "lib/crypto/consty.ml"
    "let k = [| 1; 2; 3 |]\n\n(* lint: parallel-safe *)\nlet f i = k.(i)\n";
  (* One write anywhere in the tree promotes it back. *)
  check_fires "parallel-safety" "lib/crypto/consty.ml"
    "let k = [| 1; 2; 3 |]\nlet poke i v = k.(i) <- v\n\n\
     (* lint: parallel-safe *)\nlet f i = k.(i)\n";
  (* Unannotated functions may touch whatever they like. *)
  check_silent ~rule:"parallel-safety" "lib/crypto/cachey.ml"
    "let table : (string, int) Hashtbl.t = Hashtbl.create 8\n\
     let lookup k = Hashtbl.find_opt table k\n"

(* A mutation head writes one container argument, not all of them: a
   top-level table the annotated reader uses is state only when some
   call writes it, not when it is a blit source, a queued element or a
   stored value. *)
let test_mutation_arguments () =
  let verdict check decl writer =
    check "lib/crypto/muty.ml"
      (decl ^ writer ^ "\n(* lint: parallel-safe *)\nlet f () = ignore k\n")
  in
  let fires = verdict (check_fires "parallel-safety")
  and silent = verdict (check_silent ~rule:"parallel-safety") in
  let arr = "let k = [| 1; 2; 3 |]\n" and byt = "let k = Bytes.make 3 'a'\n" in
  fires arr "let poke src = Array.blit src 0 k 0 3\n";
  fires byt "let poke src = Bytes.blit_string src 0 k 0 3\n";
  silent arr "let copy dst = Array.blit k 0 dst 0 3\n";
  silent byt "let copy dst = Bytes.blit k 0 dst 0 3\n";
  silent arr "let enqueue q = Queue.add k q\n";
  silent arr "let put tbl = Hashtbl.replace tbl \"k\" k\n";
  (* [Fun.id] hides the constructor, so these are plain bindings that
     only the write marks as state. *)
  fires "let k = Fun.id (Queue.create ())\n" "let push x = Queue.add x k\n";
  fires "let k = Fun.id (ref 0)\n" "let set v = k := v\n";
  fires "let k = Fun.id (Hashtbl.create 8)\n"
    "let put key v = Hashtbl.replace k key v\n"

(* The span-codec boundary shipped with the span layer: lib/obs/span.ml
   must stay pure (no clock, no randomness, no io, no unordered
   iteration, no global mutable state) so span ids are deterministic and
   same-seed runs journal byte-identical span streams. *)
let test_span_codec_boundary () =
  let manifest =
    ( "lint-boundaries.sexp",
      "(boundary span-codec (scope lib/obs/span.ml) (forbid clock random io \
       unordered_iter mutates_global))\n" )
  in
  let span_findings src =
    find_rule "boundary-purity" (project ~manifest [ ("lib/obs/span.ml", src) ])
  in
  (* Silent: pure derivation code. *)
  Alcotest.(check int)
    "pure span code passes" 0
    (List.length (span_findings "let derive a b = a ^ \":\" ^ b\n"));
  (* Fires: each forbidden effect class, at the entry point. *)
  List.iter
    (fun (label, src) ->
      Alcotest.(check bool) (label ^ " fires in span.ml") true
        (span_findings src <> []))
    [
      ("clock", "let now_span () = Unix.gettimeofday ()\n");
      ("random", "let random_id () = Random.bits ()\n");
      ("io", "let dump s = print_string s\n");
      ("unordered_iter", "let walk h = Hashtbl.iter (fun _ _ -> ()) h\n");
      ("mutates_global", "let seq = ref 0\nlet next () = incr seq; !seq\n");
    ];
  (* The scope is the one file: a sibling obs module is untouched. *)
  Alcotest.(check int)
    "sibling obs file out of scope" 0
    (List.length
       (find_rule "boundary-purity"
          (project ~manifest
             [ ("lib/obs/other.ml", "let now () = Unix.gettimeofday ()\n") ])));
  (* A reasoned suppression at the entry point is honoured. *)
  Alcotest.(check int)
    "suppression honoured" 0
    (List.length
       (span_findings
          "(* lint: allow boundary-purity \xe2\x80\x94 fixture *)\n\
           let dump s = print_string s\n"))

let test_baseline () =
  (* A baselined finding disappears; the baseline's own diagnostics
     surface as lint-baseline findings. *)
  let baseline_ok =
    ( "lint-baseline.txt",
      "# reviewed 2026-08\n\
       boundary-purity engine clock Vegvisir_engine.Entry.step\n" )
  in
  Alcotest.(check (list string))
    "baselined finding filtered" []
    (rules_of
       (project ~manifest:engine_manifest ~baseline:baseline_ok
          laundering_files));
  (* A stale entry is reported at its own line. *)
  let baseline_stale =
    ( "lint-baseline.txt",
      "boundary-purity engine clock Vegvisir_engine.Entry.step\n\
       boundary-purity engine io Vegvisir_engine.Entry.gone\n" )
  in
  (match
     find_rule "lint-baseline"
       (project ~manifest:engine_manifest ~baseline:baseline_stale
          laundering_files)
   with
  | [ f ] ->
    Alcotest.(check int) "stale entry line" 2 f.line;
    Alcotest.(check bool) "stale message" true (msg_contains "stale" f)
  | fs ->
    Alcotest.failf "expected one lint-baseline finding, got %d"
      (List.length fs));
  (* Malformed entries are diagnosed. *)
  let fs =
    find_rule "lint-baseline"
      (project
         ~baseline:("lint-baseline.txt", "no-such-rule some key\n")
         [ ("lib/net/a.ml", "let x = 1\n") ])
  in
  Alcotest.(check bool) "unknown rule diagnosed" true
    (List.exists (msg_contains "unknown rule") fs)

let test_multiline_suppression () =
  (* A trailing suppression on any line a multi-line application spans
     covers the finding... *)
  check_silent ~rule:"no-unordered-iteration" "lib/core/wire.ml"
    "let f h =\n  Hashtbl.iter\n    (fun _ _ -> ())\n    h (* lint: allow \
     no-unordered-iteration \xe2\x80\x94 fixture *)\n";
  (* ...as does one trailing on the line just above the expression. *)
  check_silent ~rule:"no-unordered-iteration" "lib/core/wire.ml"
    "let f h = (* lint: allow no-unordered-iteration \xe2\x80\x94 fixture \
     *)\n  Hashtbl.iter\n    (fun _ _ -> ())\n    h\n";
  (* Single-line findings keep the strict same-line/line-above rule. *)
  check_fires "no-unordered-iteration" "lib/core/wire.ml"
    "let g h = Hashtbl.iter (fun _ _ -> ()) h (* lint: allow \
     no-unordered-iteration \xe2\x80\x94 wrong line *)\nlet i = 1\n\
     let f h = Hashtbl.iter (fun _ _ -> ()) h\n"

let test_dead_suppression () =
  (* A suppression matching no finding is itself a finding. *)
  (match
     find_rule "lint-suppression"
       (lint "lib/core/dag.ml"
          "let x = 1 (* lint: allow no-poly-compare \xe2\x80\x94 stale *)\n")
   with
  | [ f ] ->
    Alcotest.(check bool) "dead suppression reported" true
      (msg_contains "matches no finding" f)
  | fs ->
    Alcotest.failf "expected one lint-suppression finding, got %d"
      (List.length fs));
  (* A live suppression is not dead. *)
  check_silent "lib/core/dag.ml"
    "let f a b = a = b (* lint: allow no-poly-compare \xe2\x80\x94 fixture *)"

let test_json_determinism () =
  (* Byte-identical output across two full runs on the same inputs. *)
  let render () =
    Veglint.Driver.render_json
      ~files:(List.length laundering_files)
      (project ~manifest:engine_manifest laundering_files)
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical across runs" a b;
  Alcotest.(check bool) "document shape" true
    (String.length a > 2
    && String.sub a 0 1 = "{"
    && String.sub a (String.length a - 1) 1 = "\n");
  (* Escaping keeps the document well-formed. *)
  let f =
    Veglint.Finding.v ~file:"a \"b\".ml" ~line:1 ~col:0 ~rule:"parse-error"
      "tab\there"
  in
  Alcotest.(check string) "escaped"
    "{\"file\": \"a \\\"b\\\".ml\", \"line\": 1, \"col\": 0, \"rule\": \
     \"parse-error\", \"message\": \"tab\\there\"}"
    (Veglint.Finding.to_json f)

let test_mli_coverage () =
  (* lint_file needs a real filesystem; build a fake lib/ in the test's
     sandbox cwd. *)
  let dir = "fake_root/lib/core" in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let uncovered = Filename.concat dir "uncovered.ml" in
  let covered = Filename.concat dir "covered.ml" in
  write uncovered "let x = 1\n";
  write covered "let x = 1\n";
  write (covered ^ "i") "val x : int\n";
  Alcotest.(check bool)
    "mli-coverage fires without .mli" true
    (List.exists
       (fun (f : Veglint.Finding.t) -> String.equal f.rule "mli-coverage")
       (Veglint.Driver.lint_file uncovered));
  Alcotest.(check (list string))
    "silent with .mli" []
    (rules_of (Veglint.Driver.lint_file covered));
  (* collect_files only picks up .ml sources, sorted. *)
  Alcotest.(check (list string))
    "collect_files" [ covered; uncovered ]
    (Veglint.Driver.collect_files [ "fake_root" ])

let () =
  Alcotest.run "vegvisir-lint"
    [
      ( "rules",
        [
          Alcotest.test_case "no-wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "no-global-random" `Quick test_global_random;
          Alcotest.test_case "no-poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "no-unordered-iteration" `Quick
            test_unordered_iteration;
          Alcotest.test_case "no-partial-stdlib" `Quick test_partial_stdlib;
          Alcotest.test_case "engine-transport-purity" `Quick test_engine_purity;
          Alcotest.test_case "no-printf-outside-obs" `Quick
            test_printf_outside_obs;
          Alcotest.test_case "no-full-scan-hot-path" `Quick
            test_full_scan_hot_path;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "suppressions" `Quick test_suppression;
          Alcotest.test_case "multiline suppressions" `Quick
            test_multiline_suppression;
          Alcotest.test_case "dead suppressions" `Quick test_dead_suppression;
          Alcotest.test_case "parse errors" `Quick test_parse_error;
          Alcotest.test_case "output format" `Quick test_output_format;
          Alcotest.test_case "json determinism" `Quick test_json_determinism;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "effect laundering" `Quick test_effect_laundering;
          Alcotest.test_case "submodule resolution" `Quick test_submodule_resolution;
          Alcotest.test_case "fixpoint on mutual recursion" `Quick
            test_fixpoint_mutual_recursion;
          Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
          Alcotest.test_case "parallel safety" `Quick test_parallel_safety;
          Alcotest.test_case "mutation arguments" `Quick test_mutation_arguments;
          Alcotest.test_case "span-codec boundary" `Quick
            test_span_codec_boundary;
          Alcotest.test_case "baseline" `Quick test_baseline;
        ] );
    ]
