let parse_structure ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

let parse_error_finding ~path exn =
  let line, col, detail =
    match exn with
    | Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      let p = loc.Location.loc_start in
      (p.pos_lnum, p.pos_cnum - p.pos_bol, "syntax error")
    | Lexer.Error (_, loc) ->
      let p = loc.Location.loc_start in
      (p.pos_lnum, p.pos_cnum - p.pos_bol, "lexer error")
    | e -> (1, 0, Printexc.to_string e)
  in
  Finding.v ~file:path ~line ~col ~rule:"parse-error" detail

(* ------------------------------------------------------------------ *)
(* The project-level pipeline                                          *)

(* Ordering matters in here. Suppression coverage ([allows]) must be
   consulted by every pass — per-file rules, mli-coverage, and the
   interprocedural findings — before dead suppressions are computed,
   because "dead" means "matched by no pass". *)
let lint_project ?manifest ?(mli_missing = []) inputs =
  let units =
    List.map
      (fun (path, source) ->
        let sup = Suppress.scan ~known_rules:Rules.names source in
        let parsed =
          match parse_structure ~path source with
          | structure -> Ok structure
          | exception exn -> Error (parse_error_finding ~path exn)
        in
        (path, sup, parsed))
      inputs
  in
  let parse_findings =
    List.filter_map
      (fun (_, _, parsed) ->
        match parsed with Error f -> Some f | Ok _ -> None)
      units
  in
  let ast_findings =
    List.concat_map
      (fun (path, sup, parsed) ->
        match parsed with
        | Error _ -> []
        | Ok structure ->
          Rules.check ~path structure
          |> List.filter (fun (f : Finding.t) ->
                 not
                   (Suppress.allows sup ~rule:f.rule ~end_line:f.end_line
                      ~line:f.line ())))
      units
  in
  let mli_findings =
    List.filter_map
      (fun path ->
        let suppressed =
          match List.find_opt (fun (p, _, _) -> String.equal p path) units with
          | Some (_, sup, _) ->
            Suppress.allows sup ~rule:"mli-coverage" ~line:1 ()
          | None -> false
        in
        if suppressed then None
        else
          Some
            (Finding.v ~file:path ~line:1 ~col:0 ~rule:"mli-coverage"
               ("missing interface "
               ^ Filename.basename path
               ^ "i: every lib module documents its contract in a .mli")))
      mli_missing
  in
  let graph =
    Callgraph.build
      (List.filter_map
         (fun (path, sup, parsed) ->
           match parsed with
           | Ok structure -> Some (path, structure, sup)
           | Error _ -> None)
         units)
  in
  let manifest_findings, boundaries =
    match manifest with
    | None -> ([], [])
    | Some (mpath, msrc) ->
      let bs, errs = Boundaries.parse msrc in
      ( List.map
          (fun (line, msg) ->
            Finding.v ~file:mpath ~line ~col:0 ~rule:"boundary-manifest" msg)
          errs,
        bs )
  in
  let interproc =
    Interproc.check_boundaries graph boundaries
    @ Interproc.check_parallel_safety graph
  in
  let sup_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (path, sup, _) -> Hashtbl.replace tbl path sup) units;
    tbl
  in
  let interproc =
    List.filter
      (fun (f : Finding.t) ->
        match Hashtbl.find_opt sup_of f.file with
        | Some sup ->
          not
            (Suppress.allows sup ~rule:f.rule ~end_line:f.end_line
               ~line:f.line ())
        | None -> true)
      interproc
  in
  let suppression_findings =
    List.concat_map
      (fun (path, sup, parsed) ->
        let errs =
          List.map
            (fun (line, col, msg) ->
              Finding.v ~file:path ~line ~col ~rule:"lint-suppression" msg)
            (Suppress.errors sup)
        in
        let dead =
          match parsed with
          | Error _ -> []  (* no AST, so coverage cannot be judged *)
          | Ok _ ->
            List.map
              (fun (line, col, rules) ->
                Finding.v ~file:path ~line ~col ~rule:"lint-suppression"
                  ("suppression ("
                  ^ String.concat ", " rules
                  ^ ") matches no finding; delete it"))
              (Suppress.dead sup)
        in
        errs @ dead)
      units
  in
  List.sort Finding.compare
    (parse_findings @ ast_findings @ mli_findings @ manifest_findings
   @ interproc @ suppression_findings)

let lint_source ~path source = lint_project [ (path, source) ]

(* ------------------------------------------------------------------ *)
(* Filesystem                                                          *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path =
  match read_file path with
  | source ->
    let mli_missing =
      if Rules.mli_required path && not (Sys.file_exists (path ^ "i")) then
        [ path ]
      else []
    in
    lint_project ~mli_missing [ (path, source) ]
  | exception Sys_error msg ->
    [ Finding.v ~file:path ~line:1 ~col:0 ~rule:"parse-error" msg ]

let in_build path =
  List.exists (String.equal "_build") (String.split_on_char '/' path)

let normalize path =
  if String.length path > 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

let collect_files roots =
  let rec walk acc path =
    if Sys.file_exists path && Sys.is_directory path then
      Array.to_list (Sys.readdir path)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "_build" || String.length entry > 0 && entry.[0] = '.'
             then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" && not (in_build path) then
      path :: acc
    else acc
  in
  List.sort_uniq String.compare
    (List.map normalize (List.fold_left walk [] roots))

(* ------------------------------------------------------------------ *)
(* JSON document                                                       *)

let render_json ~files findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"tool\": \"vegvisir-lint\", \"version\": 1, ";
  Buffer.add_string buf "\"files\": ";
  Buffer.add_string buf (string_of_int files);
  Buffer.add_string buf ", \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Finding.to_json f))
    findings;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

let usage =
  "usage: vegvisir_lint [--json] [--list-rules] [--explain RULE] \
   [--boundaries FILE] <dir-or-file>..."

type mode =
  | List_rules
  | Explain of string
  | Lint of {
      json : bool;
      boundaries : string option;
      roots : string list;
    }

let parse_args args =
  let json = ref false in
  let boundaries = ref None in
  let roots = ref [] in
  let special = ref None in
  let rec go = function
    | [] -> Ok ()
    | "--json" :: rest ->
      json := true;
      go rest
    | "--list-rules" :: rest ->
      special := Some List_rules;
      go rest
    | "--explain" :: rule :: rest ->
      special := Some (Explain rule);
      go rest
    | [ "--explain" ] -> Error "--explain needs a rule name"
    | "--boundaries" :: path :: rest ->
      boundaries := Some path;
      go rest
    | [ "--boundaries" ] -> Error "--boundaries needs a file"
    | flag :: _
      when String.length flag >= 2 && String.sub flag 0 2 = "--" ->
      Error ("unknown flag " ^ flag)
    | root :: rest ->
      roots := root :: !roots;
      go rest
  in
  match go args with
  | Error e -> Error e
  | Ok () -> begin
    match !special with
    | Some m -> Ok m
    | None ->
      Ok
        (Lint
           {
             json = !json;
             boundaries = !boundaries;
             roots = List.rev !roots;
           })
  end

(* The boundary manifest participates when explicitly requested — then
   it must exist — or implicitly when lint-boundaries.sexp is present in
   the working directory. *)
let manifest_file = function
  | Some path ->
    if Sys.file_exists path then Ok (Some (path, read_file path))
    else Error ("--boundaries file not found: " ^ path)
  | None ->
    let default = "lint-boundaries.sexp" in
    if Sys.file_exists default then Ok (Some (default, read_file default))
    else Ok None

let run_lint ~json ~boundaries ~roots =
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if roots = [] || missing <> [] then begin
    prerr_endline
      ("vegvisir-lint: " ^ usage ^ "; missing: " ^ String.concat ", " missing);
    2
  end
  else begin
    match manifest_file boundaries with
    | Error e ->
      prerr_endline ("vegvisir-lint: " ^ e);
      2
    | Ok manifest ->
      let files = collect_files roots in
      let inputs = List.map (fun path -> (path, read_file path)) files in
      let mli_missing =
        List.filter
          (fun path ->
            Rules.mli_required path && not (Sys.file_exists (path ^ "i")))
          files
      in
      let findings = lint_project ?manifest ~mli_missing inputs in
      (if json then
         (* lint: allow no-printf-outside-obs — the JSON document on stdout is the lint CLI's whole interface *)
         print_string (render_json ~files:(List.length files) findings)
       else
         (* lint: allow no-printf-outside-obs — findings on stdout are the lint CLI's whole interface *)
         List.iter (fun f -> print_endline (Finding.to_string f)) findings);
      let n = List.length findings in
      if n = 0 then begin
        Printf.eprintf "vegvisir-lint: OK (%d files, %d rules)\n"
          (List.length files)
          (List.length Rules.all);
        0
      end
      else begin
        Printf.eprintf "vegvisir-lint: %d finding(s) in %d file(s)\n" n
          (List.length
             (List.sort_uniq String.compare
                (List.map (fun (f : Finding.t) -> f.Finding.file) findings)));
        1
      end
  end

let main args =
  match parse_args args with
  | Error e ->
    prerr_endline ("vegvisir-lint: " ^ e);
    prerr_endline ("vegvisir-lint: " ^ usage);
    2
  | Ok List_rules ->
    List.iter
      (fun (name, desc) ->
        (* lint: allow no-printf-outside-obs — rule listing on stdout is the lint CLI's whole interface *)
        print_endline (Printf.sprintf "%-26s %s" name desc))
      Rules.all;
    0
  | Ok (Explain rule) -> begin
    match Rules.explain rule with
    | Some text ->
      (* lint: allow no-printf-outside-obs — rule explanation on stdout is the lint CLI's whole interface *)
      print_endline (rule ^ ": " ^ text);
      0
    | None ->
      prerr_endline
        ("vegvisir-lint: unknown rule \"" ^ rule
       ^ "\" (try --list-rules for the full set)");
      2
  end
  | Ok (Lint { json; boundaries; roots }) -> run_lint ~json ~boundaries ~roots
