type entry = {
  line : int;
  col : int;
  standalone : bool;
  rules : string list;
  mutable used : bool;
}

type t = {
  entries : entry list;
  safe_lines : int list;  (* lines covered by a parallel-safe annotation *)
  stateless_lines : int list;  (* lines covered by a no-static-state one *)
  errs : (int * int * string) list;
}

(* Built by concatenation so that scanning this very file does not trip
   over its own marker. *)
let marker = "(*" ^ " lint:"

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go from

let is_blank s =
  String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') s

let trim = String.trim

(* Earliest of the reason separators: em dash, "--", or ":". Returns
   (index, separator length). *)
let split_reason content =
  let candidates = [ ("\xe2\x80\x94", 3); ("--", 2); (":", 1) ] in
  let best =
    List.fold_left
      (fun acc (sep, len) ->
        match find_sub content sep 0 with
        | None -> acc
        | Some i -> (
          match acc with
          | Some (j, _) when j <= i -> acc
          | _ -> Some (i, len)))
      None candidates
  in
  match best with
  | None -> None
  | Some (i, len) ->
    Some
      ( trim (String.sub content 0 i),
        trim (String.sub content (i + len) (String.length content - i - len))
      )

let valid_rule_name s =
  s <> ""
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '-') s

type acc = {
  mutable a_entries : entry list;
  mutable a_safe : int list;
  mutable a_stateless : int list;
  mutable a_errs : (int * int * string) list;
}

let no_static_state = "no-static-state"

let parse_line ~known_rules ~lineno line acc =
  let rec go from =
    match find_sub line marker from with
    | None -> ()
    | Some start -> (
      let after = start + String.length marker in
      match find_sub line "*)" after with
      | None ->
        acc.a_errs <- (lineno, start, "unterminated lint comment") :: acc.a_errs
      | Some close ->
        let content = trim (String.sub line after (close - after)) in
        let standalone =
          is_blank (String.sub line 0 start)
          && is_blank
               (String.sub line (close + 2) (String.length line - close - 2))
        in
        let covered = if standalone then lineno + 1 else lineno in
        (if String.equal content "parallel-safe" then
           (* An annotation, not a suppression: marks the definition on
              the covered line as a domain-safety entry point. *)
           acc.a_safe <- covered :: acc.a_safe
         else if String.starts_with ~prefix:no_static_state content then
           (* An annotation on an [external]: its foreign code keeps no
              static state. It asserts what the analysis cannot read, so
              it must say why. *)
           begin match split_reason content with
           | Some (name, reason) when name = no_static_state && reason <> "" ->
             acc.a_stateless <- covered :: acc.a_stateless
           | _ ->
             acc.a_errs <-
               (lineno, start, "no-static-state needs a reason") :: acc.a_errs
           end
         else
           match
             String.length content >= 5 && String.sub content 0 5 = "allow"
           with
           | false ->
             acc.a_errs <-
               ( lineno,
                 start,
                 "expected \"allow <rules> \xe2\x80\x94 reason\" or \
                  \"parallel-safe\"" )
               :: acc.a_errs
           | true -> (
             let rest =
               trim (String.sub content 5 (String.length content - 5))
             in
             match split_reason rest with
             | None | Some (_, "") ->
               acc.a_errs <-
                 (lineno, start, "suppression needs a reason after the rules")
                 :: acc.a_errs
             | Some (rules_str, _reason) ->
               let rules =
                 List.map trim (String.split_on_char ',' rules_str)
               in
               let bad =
                 List.filter
                   (fun r ->
                     (not (valid_rule_name r))
                     || not (List.exists (String.equal r) known_rules))
                   rules
               in
               if rules = [] || List.exists (fun r -> r = "") rules then
                 acc.a_errs <-
                   (lineno, start, "suppression names no rules") :: acc.a_errs
               else if bad <> [] then
                 acc.a_errs <-
                   ( lineno,
                     start,
                     "unknown rule(s): " ^ String.concat ", " bad )
                   :: acc.a_errs
               else
                 acc.a_entries <-
                   { line = lineno; col = start; standalone; rules;
                     used = false }
                   :: acc.a_entries));
        go (close + 2))
  in
  go 0

let scan ~known_rules source =
  let lines = String.split_on_char '\n' source in
  let acc = { a_entries = []; a_safe = []; a_stateless = []; a_errs = [] } in
  List.iteri
    (fun i line -> parse_line ~known_rules ~lineno:(i + 1) line acc)
    lines;
  {
    entries = List.rev acc.a_entries;
    safe_lines = List.rev acc.a_safe;
    stateless_lines = List.rev acc.a_stateless;
    errs = List.rev acc.a_errs;
  }

(* A trailing suppression covers its own line; a standalone one covers
   the following line. When the offending expression spans several lines
   ([end_line > line]) the net widens: a trailing suppression on the
   line just above the expression, or on any line the expression spans,
   also covers it — so multi-line applications can carry their
   suppression wherever it reads best. *)
let covers e ~line ~end_line =
  e.line = line
  || (e.standalone && e.line = line - 1)
  || (end_line > line && e.line >= line - 1 && e.line <= end_line)

let allows t ~rule ?(end_line = 0) ~line () =
  let end_line = max line end_line in
  match
    List.find_opt
      (fun e ->
        List.exists (String.equal rule) e.rules && covers e ~line ~end_line)
      t.entries
  with
  | Some e ->
    e.used <- true;
    true
  | None -> false

let errors t = t.errs
let parallel_safe_covers t ~line = List.mem line t.safe_lines
let no_static_state_covers t ~line = List.mem line t.stateless_lines

let dead t =
  List.filter_map
    (fun e -> if e.used then None else Some (e.line, e.col, e.rules))
    t.entries
