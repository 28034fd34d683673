(* vegvisir-lint: determinism & correctness lints for the vegvisir tree.

   Usage: vegvisir_lint [--json] [--list-rules] [--explain RULE]
                        [--boundaries FILE] [dir-or-file]...

   With no roots lints lib/, bin/, examples/, and bench/ relative to the
   current directory (the repo root, or dune's _build context when run
   via the @lint alias); lint-boundaries.sexp is picked up from the
   working directory when present. Duplicate roots
   and anything under _build are skipped. Exit 0 = clean, 1 = findings,
   2 = usage. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a >= 2 && String.sub a 0 2 = "--" in
  (* Roots are the positional arguments; --explain/--boundaries consume
     the argument that follows them. *)
  let rec has_roots = function
    | [] -> false
    | ("--explain" | "--boundaries") :: _ :: rest ->
      has_roots rest
    | a :: rest -> (not (is_flag a)) || has_roots rest
  in
  let listing_only =
    List.exists (fun a -> a = "--list-rules" || a = "--explain") args
  in
  let args =
    if has_roots args || listing_only then args
    else args @ [ "lib"; "bin"; "examples"; "bench" ]
  in
  exit (Veglint.Driver.main args)
