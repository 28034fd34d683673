(* Cross-module call graph over the parsed tree, and the bottom-up
   effect fixpoint on top of it.

   Construction is two-pass. Pass 1 walks every structure and records,
   per compilation unit: its definitions (top-level [let]s and
   [external]s, including those nested in [module M = struct .. end]
   submodules, keyed ["Sub.name"]), its module aliases
   ([module V = Vegvisir], functor applications normalized by dropping
   the trailing [Make]), its [open]s, and its [include]s. Pass 2 walks every binding body with a
   scope-tracking iterator: locally-bound names never produce edges, and
   every remaining identifier either resolves to a definition (an edge)
   or is classified against the primitive denylists (a seeded effect).

   The analysis is deliberately syntactic and conservative in both
   directions, and the holes are documented rather than hidden:
   references through first-class modules, functor bodies, and closures
   stored in data structures (e.g. obs bus sinks) are invisible, while
   an alias-shadowing local module can produce a spurious edge. Findings
   downstream carry witness chains precisely so that a spurious edge
   reads as the falsifiable claim it is. *)

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

type shape = [ `Plain | `Array_like | `Mutable of string ]

type def = {
  id : string;
  d_file : string;
  d_line : int;
  d_end_line : int;
  d_parallel_safe : bool;
  calls : (string, unit) Hashtbl.t;
  mutable own : (Effect_sig.name * string) list;
  shape : shape;
  mutable written : bool;
}

type unit_info = {
  ns : string;  (* library wrapper, e.g. "Vegvisir_crypto"; "" for bin *)
  unit_name : string;  (* "Dag" *)
  defs : (string, def) Hashtbl.t;  (* "name" or "Sub.name" -> def *)
  mutable aliases : (string * string list) list;
  mutable opens : string list list;  (* reverse source order *)
  mutable includes : string list list;
}

type t = {
  units : (string * string, unit_info) Hashtbl.t;  (* (ns, unit_name) *)
  namespaces : (string, unit) Hashtbl.t;
  nodes : (string, def) Hashtbl.t;  (* id -> def *)
  mutable effects : (string, Effect_sig.t) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Namespaces: directory -> library wrapper module, mirroring the dune
   library names. Paths outside lib/ (bin, bench, examples, fixtures)
   get the empty namespace: their units are addressed by bare name.     *)

let namespace_of_path path =
  match Rules.logical path with
  | "lib" :: dir :: _ -> begin
    match dir with
    | "core" -> "Vegvisir"
    | "lint" -> "Veglint"
    | other -> "Vegvisir_" ^ other
  end
  | _ -> ""

let unit_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* ------------------------------------------------------------------ *)
(* Pass 1: definitions, aliases, opens, includes                        *)

let rec module_path (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Parsetree.Pmod_ident { txt; _ } -> Some (strip_stdlib (flatten txt))
  | Parsetree.Pmod_apply (f, _) -> begin
    (* [Map.Make (Ord)]: name the functor's home module so that e.g. a
       [Hashtbl.Make] instance still classifies as a Hashtbl. *)
    match module_path f with
    | Some parts -> begin
      match List.rev parts with
      | "Make" :: rev_rest when rev_rest <> [] -> Some (List.rev rev_rest)
      | _ -> Some parts
    end
    | None -> None
  end
  | Parsetree.Pmod_constraint (me, _) -> module_path me
  | _ -> None

let rec shape_of_expr (e : Parsetree.expression) : shape =
  match e.pexp_desc with
  | Parsetree.Pexp_array _ -> `Array_like
  | Parsetree.Pexp_constraint (e, _) -> shape_of_expr e
  | Parsetree.Pexp_apply
      ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _) -> begin
    match strip_stdlib (flatten txt) with
    | [ "ref" ] -> `Mutable "ref"
    | [ "Hashtbl"; ("create" | "copy" | "of_seq") ] -> `Mutable "Hashtbl.t"
    | [ "Buffer"; "create" ] -> `Mutable "Buffer.t"
    | [ "Queue"; "create" ] -> `Mutable "Queue.t"
    | [ "Stack"; "create" ] -> `Mutable "Stack.t"
    | [ "Atomic"; "make" ] -> `Mutable "Atomic.t"
    | [ "Array";
        ( "make" | "init" | "create_float" | "make_matrix" | "of_list"
        | "copy" | "append" | "concat" ) ]
    | [ "Bytes"; ("create" | "make" | "of_string" | "copy") ] ->
      `Array_like
    | _ -> `Plain
  end
  | _ -> `Plain

let rec pattern_names acc (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> txt :: acc
  | Parsetree.Ppat_alias (p, { txt; _ }) -> pattern_names (txt :: acc) p
  | Parsetree.Ppat_tuple ps | Parsetree.Ppat_array ps ->
    List.fold_left pattern_names acc ps
  | Parsetree.Ppat_construct (_, Some (_, p))
  | Parsetree.Ppat_variant (_, Some p)
  | Parsetree.Ppat_constraint (p, _)
  | Parsetree.Ppat_lazy p
  | Parsetree.Ppat_exception p
  | Parsetree.Ppat_open (_, p) ->
    pattern_names acc p
  | Parsetree.Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, p) -> pattern_names acc p) acc fields
  | Parsetree.Ppat_or (a, b) -> pattern_names (pattern_names acc a) b
  | _ -> acc

let create () =
  {
    units = Hashtbl.create 64;
    namespaces = Hashtbl.create 16;
    nodes = Hashtbl.create 1024;
    effects = Hashtbl.create 1024;
  }

let full_unit_name u =
  if u.ns = "" then u.unit_name else u.ns ^ "." ^ u.unit_name

let collect_unit t ~path ~sup (structure : Parsetree.structure) =
  let ns = namespace_of_path path in
  let unit_name = unit_name_of_path path in
  let u =
    {
      ns;
      unit_name;
      defs = Hashtbl.create 32;
      aliases = [];
      opens = [];
      includes = [];
    }
  in
  if ns <> "" then Hashtbl.replace t.namespaces ns ();
  let add ~prefix name ~(loc : Location.t) ~parallel_safe ~own ~shape =
    let key = if prefix = "" then name else prefix ^ "." ^ name in
    let d =
      {
        id = full_unit_name u ^ "." ^ key;
        d_file = path;
        d_line = loc.loc_start.pos_lnum;
        d_end_line = loc.loc_end.pos_lnum;
        d_parallel_safe = parallel_safe;
        calls = Hashtbl.create 8;
        own;
        shape;
        written = false;
      }
    in
    Hashtbl.replace u.defs key d;
    Hashtbl.replace t.nodes d.id d
  in
  let add_def ~prefix name (vb : Parsetree.value_binding) =
    add ~prefix name ~loc:vb.pvb_loc
      ~parallel_safe:
        (Suppress.parallel_safe_covers sup ~line:vb.pvb_loc.loc_start.pos_lnum)
      ~own:[] ~shape:(shape_of_expr vb.pvb_expr)
  in
  (* An [external] is a node with no body. A primitive not spelled with
     a leading [%] is foreign code the analysis cannot read: it counts
     as reaching top-level mutable state unless its declaration carries
     a reasoned [no-static-state] annotation. *)
  let add_external ~prefix (vd : Parsetree.value_description) =
    let line = vd.pval_loc.loc_start.pos_lnum in
    let own =
      match vd.pval_prim with
      | prim :: _
        when (not (String.starts_with ~prefix:"%" prim))
             && not (Suppress.no_static_state_covers sup ~line) ->
        [ ( Effect_sig.Mutates_global,
            "foreign code " ^ prim ^ " at " ^ path ^ ":" ^ string_of_int line ) ]
      | _ -> []
    in
    add ~prefix vd.pval_name.txt ~loc:vd.pval_loc ~parallel_safe:false ~own
      ~shape:`Plain
  in
  let rec items ~prefix l =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              List.iter
                (fun name -> add_def ~prefix name vb)
                (List.rev (pattern_names [] vb.Parsetree.pvb_pat)))
            vbs
        | Parsetree.Pstr_primitive vd -> add_external ~prefix vd
        | Parsetree.Pstr_module mb -> module_binding ~prefix mb
        | Parsetree.Pstr_recmodule mbs ->
          List.iter (module_binding ~prefix) mbs
        | Parsetree.Pstr_open od -> begin
          match module_path od.popen_expr with
          | Some parts -> u.opens <- parts :: u.opens
          | None -> ()
        end
        | Parsetree.Pstr_include incl -> begin
          match incl.pincl_mod.pmod_desc with
          | Parsetree.Pmod_structure inner -> items ~prefix inner
          | _ -> begin
            match module_path incl.pincl_mod with
            | Some parts -> u.includes <- parts :: u.includes
            | None -> ()
          end
        end
        | _ -> ())
      l
  and module_binding ~prefix (mb : Parsetree.module_binding) =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> begin
      let sub = if prefix = "" then name else prefix ^ "." ^ name in
      match mb.pmb_expr.pmod_desc with
      | Parsetree.Pmod_structure inner -> items ~prefix:sub inner
      | Parsetree.Pmod_constraint
          ({ pmod_desc = Parsetree.Pmod_structure inner; _ }, _) ->
        items ~prefix:sub inner
      | _ -> begin
        match module_path mb.pmb_expr with
        | Some parts -> u.aliases <- (name, parts) :: u.aliases
        | None -> ()
      end
    end
  in
  items ~prefix:"" structure;
  Hashtbl.replace t.units (ns, unit_name) u;
  u

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

let is_namespace t name = Hashtbl.mem t.namespaces name

let rec expand_alias u depth parts =
  match parts with
  | head :: rest when depth < 8 -> begin
    match List.assoc_opt head u.aliases with
    | Some target -> expand_alias u (depth + 1) (target @ rest)
    | None -> parts
  end
  | _ -> parts

(* Resolve a module path to (unit, submodule path within it). *)
let rec resolve_module t u ~use_opens parts =
  match expand_alias u 0 parts with
  | [] -> None
  | head :: rest ->
    if is_namespace t head then begin
      match rest with
      | uname :: sub -> begin
        match Hashtbl.find_opt t.units (head, uname) with
        | Some target -> Some (target, sub)
        | None -> None
      end
      | [] -> None
    end
    else begin
      match Hashtbl.find_opt t.units (u.ns, head) with
      | Some target -> Some (target, rest)
      | None ->
        if not use_opens then None
        else
          List.find_map
            (fun o ->
              match expand_alias u 0 o with
              | [ ons ] when is_namespace t ons -> begin
                (* [open Vegvisir] exposes that library's units. *)
                match Hashtbl.find_opt t.units (ons, head) with
                | Some target -> Some (target, rest)
                | None -> None
              end
              | o -> begin
                (* [open Dag] exposes Dag's submodules. *)
                match resolve_module t u ~use_opens:false o with
                | Some (target, sub) -> Some (target, sub @ (head :: rest))
                | None -> None
              end)
            u.opens
    end

let find_def unit_ key = Hashtbl.find_opt unit_.defs key

let lookup_in t u target subpath fname =
  let key = String.concat "." (subpath @ [ fname ]) in
  match find_def target key with
  | Some d -> Some d
  | None ->
    if subpath <> [] then None
    else
      (* Functor-free includes: [include Dag] re-exports Dag's defs. *)
      List.find_map
        (fun inc ->
          match resolve_module t u ~use_opens:false inc with
          | Some (iu, isub) ->
            find_def iu (String.concat "." (isub @ [ fname ]))
          | None -> None)
        target.includes

(* Resolve [modpath.fname] seen in unit [u] inside submodule
   [sub_prefix] to its definition, if it names one in the tree. The
   definitions [unbound] are not in scope: the body of a non-recursive
   [let f] names the [f] that encloses it. *)
let resolve_value t u ~sub_prefix ~unbound ~local_opens modpath fname =
  (* [key] as defined in submodule [chain] of this unit or in the
     nearest submodule enclosing it. *)
  let rec up chain key =
    match find_def u (String.concat "." (chain @ [ key ])) with
    | Some d when not (List.memq d unbound) -> Some d
    | Some _ | None -> begin
      match chain with
      | [] -> None
      | chain -> up (List.filteri (fun i _ -> i < List.length chain - 1) chain) key
    end
  in
  match modpath with
  | [] -> begin
    match up sub_prefix fname with
    | Some d -> Some d
    | None ->
      List.find_map
        (fun o ->
          match resolve_module t u ~use_opens:false o with
          | Some (target, sub) -> lookup_in t u target sub fname
          | None -> None)
        (local_opens @ u.opens)
  end
  | _ -> begin
    (* [Sub.f] names this unit's own submodule [Sub] (or a module alias
       of it) before any other unit of that name, as in OCaml. *)
    let key = String.concat "." (expand_alias u 0 modpath @ [ fname ]) in
    match up sub_prefix key with
    | Some d -> Some d
    | None -> begin
      match resolve_module t u ~use_opens:true modpath with
      | Some (target, sub) -> lookup_in t u target sub fname
      | None -> None
    end
  end

(* ------------------------------------------------------------------ *)
(* Container writes                                                    *)

(* Operations that mutate a container argument in place: when that
   argument resolves to a top-level binding, the binding is written
   global state. [mutated_args parts] is the 0-based positions of the
   written positional arguments, [] when [parts] is no mutation head.
   Only the written container counts: a blit's source or a queued
   element is merely read. *)
let mutated_args parts =
  match parts with
  | [ (":=" | "incr" | "decr") ] -> [ 0 ]
  | [ "Hashtbl";
      ( "replace" | "add" | "remove" | "reset" | "clear"
      | "filter_map_inplace" ) ] ->
    [ 0 ]
  | [ "Buffer";
      ( "add_string" | "add_char" | "add_bytes" | "add_buffer"
      | "add_substring" | "add_subbytes" | "add_utf_8_uchar" | "clear"
      | "reset" | "truncate" ) ] ->
    [ 0 ]
  | [ "Array"; "blit" ] | [ "Bytes"; ("blit" | "blit_string") ] -> [ 2 ]
  | [ "Array";
      ("set" | "unsafe_set" | "fill" | "sort" | "fast_sort" | "stable_sort") ]
    ->
    [ 0 ]
  | [ "Bytes"; ("set" | "unsafe_set" | "fill") ] -> [ 0 ]
  | [ "Queue"; ("add" | "push") ] | [ "Stack"; "push" ] -> [ 1 ]
  | [ "Queue"; "transfer" ] -> [ 0; 1 ]
  | [ "Queue"; ("pop" | "take" | "clear") ]
  | [ "Stack"; ("pop" | "clear") ]
  | [ "Atomic";
      ( "set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr"
      | "decr" ) ] ->
    [ 0 ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Pass 2: reference extraction with scope tracking                     *)

let walk_body t u ~sub_prefix ~unbound ~targets body =
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let local_opens = ref [] in
  let local_aliases = ref [] in
  let push names = List.iter (fun n -> Hashtbl.add locals n ()) names in
  let pop names = List.iter (fun n -> Hashtbl.remove locals n) names in
  let resolve parts =
    match parts with
    | [] -> None
    | [ name ] when Hashtbl.mem locals name -> None
    | _ -> begin
      match List.rev parts with
      | [] -> None
      | fname :: rev_mod ->
        let saved = u.aliases in
        u.aliases <- !local_aliases @ u.aliases;
        let modpath = List.rev rev_mod in
        let d =
          resolve_value t u ~sub_prefix ~unbound ~local_opens:!local_opens
            modpath fname
        in
        u.aliases <- saved;
        d
    end
  in
  let reference ~args parts =
    match parts with
    | [] -> ()
    | _ -> begin
      match resolve parts with
      | Some d ->
        List.iter (fun tgt -> Hashtbl.replace tgt.calls d.id ()) targets
      | None ->
        List.iter
          (fun eff ->
            List.iter
              (fun tgt ->
                if not (List.mem eff tgt.own) then tgt.own <- eff :: tgt.own)
              targets)
          (Rules.primitive_effects parts args)
    end
  in
  let mark_written (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> begin
      match resolve (strip_stdlib (flatten txt)) with
      | Some d -> d.written <- true
      | None -> ()
    end
    | _ -> ()
  in
  let rec expr_hook (self : Ast_iterator.iterator)
      (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } ->
      reference ~args:[] (strip_stdlib (flatten txt))
    | Parsetree.Pexp_apply
        ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args) ->
      let parts = strip_stdlib (flatten txt) in
      let plain_args = List.map snd args in
      let positional =
        List.filter_map
          (fun (label, a) ->
            match label with Asttypes.Nolabel -> Some a | _ -> None)
          args
      in
      List.iter
        (fun i -> Option.iter mark_written (List.nth_opt positional i))
        (mutated_args parts);
      reference ~args:plain_args parts;
      List.iter (fun a -> self.expr self a) plain_args
    | Parsetree.Pexp_setfield (lhs, _, rhs) ->
      mark_written lhs;
      self.expr self lhs;
      self.expr self rhs
    | Parsetree.Pexp_fun (_, default, pat, body) ->
      Option.iter (self.expr self) default;
      let names = pattern_names [] pat in
      push names;
      self.expr self body;
      pop names
    | Parsetree.Pexp_function cases ->
      List.iter (case self) cases
    | Parsetree.Pexp_let (rf, vbs, body) ->
      let names =
        List.concat_map
          (fun (vb : Parsetree.value_binding) ->
            pattern_names [] vb.pvb_pat)
          vbs
      in
      if rf = Asttypes.Recursive then begin
        push names;
        List.iter
          (fun (vb : Parsetree.value_binding) -> self.expr self vb.pvb_expr)
          vbs;
        self.expr self body;
        pop names
      end
      else begin
        List.iter
          (fun (vb : Parsetree.value_binding) -> self.expr self vb.pvb_expr)
          vbs;
        push names;
        self.expr self body;
        pop names
      end
    | Parsetree.Pexp_match (scrutinee, cases)
    | Parsetree.Pexp_try (scrutinee, cases) ->
      self.expr self scrutinee;
      List.iter (case self) cases
    | Parsetree.Pexp_for (pat, lo, hi, _, body) ->
      self.expr self lo;
      self.expr self hi;
      let names = pattern_names [] pat in
      push names;
      self.expr self body;
      pop names
    | Parsetree.Pexp_letmodule ({ txt = Some name; _ }, me, body) -> begin
      (match module_path me with
      | Some parts -> local_aliases := (name, parts) :: !local_aliases
      | None -> self.module_expr self me);
      self.expr self body;
      match !local_aliases with
      | (n, _) :: rest when n = name -> local_aliases := rest
      | _ -> ()
    end
    | Parsetree.Pexp_open (od, body) -> begin
      match module_path od.popen_expr with
      | Some parts ->
        local_opens := parts :: !local_opens;
        self.expr self body;
        local_opens :=
          (match !local_opens with _ :: rest -> rest | [] -> [])
      | None -> self.expr self body
    end
    | _ -> Ast_iterator.default_iterator.expr self e
  and case self (c : Parsetree.case) =
    let names = pattern_names [] c.pc_lhs in
    push names;
    Option.iter (self.expr self) c.pc_guard;
    self.expr self c.pc_rhs;
    pop names
  in
  let iter = { Ast_iterator.default_iterator with expr = expr_hook } in
  iter.expr iter body

let link_unit t u (structure : Parsetree.structure) =
  let rec items ~prefix l =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Parsetree.Pstr_value (rf, vbs) ->
          let sub_prefix =
            if prefix = "" then [] else String.split_on_char '.' prefix
          in
          let defs (vb : Parsetree.value_binding) =
            List.filter_map
              (fun name ->
                find_def u (if prefix = "" then name else prefix ^ "." ^ name))
              (List.rev (pattern_names [] vb.Parsetree.pvb_pat))
          in
          let unbound =
            match rf with
            | Asttypes.Recursive -> []
            | Asttypes.Nonrecursive -> List.concat_map defs vbs
          in
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let targets = defs vb in
              if targets <> [] then
                walk_body t u ~sub_prefix ~unbound ~targets
                  vb.Parsetree.pvb_expr)
            vbs
        | Parsetree.Pstr_module mb -> module_binding ~prefix mb
        | Parsetree.Pstr_recmodule mbs ->
          List.iter (module_binding ~prefix) mbs
        | Parsetree.Pstr_include
            { pincl_mod = { pmod_desc = Parsetree.Pmod_structure inner; _ };
              _ } ->
          items ~prefix inner
        | _ -> ())
      l
  and module_binding ~prefix (mb : Parsetree.module_binding) =
    match mb.pmb_name.txt with
    | None -> ()
    | Some name -> begin
      let sub = if prefix = "" then name else prefix ^ "." ^ name in
      match mb.pmb_expr.pmod_desc with
      | Parsetree.Pmod_structure inner -> items ~prefix:sub inner
      | Parsetree.Pmod_constraint
          ({ pmod_desc = Parsetree.Pmod_structure inner; _ }, _) ->
        items ~prefix:sub inner
      | _ -> ()
    end
  in
  items ~prefix:"" structure

(* ------------------------------------------------------------------ *)
(* Top-level mutable state                                             *)

let mutable_kind d =
  match d.shape with
  | `Mutable kind -> Some kind
  | `Array_like when d.written -> Some "written array"
  | `Plain when d.written -> Some "mutable record or ref alias"
  | `Array_like | `Plain -> None

let seed_mutable_state t =
  Hashtbl.iter
    (fun _ d ->
      match mutable_kind d with
      | Some kind ->
        let descr =
          "top-level " ^ kind ^ " at " ^ d.d_file ^ ":"
          ^ string_of_int d.d_line
        in
        if
          not
            (List.exists
               (fun (n, _) -> n = Effect_sig.Mutates_global)
               d.own)
        then d.own <- (Effect_sig.Mutates_global, descr) :: d.own
      | None -> ())
    t.nodes

(* ------------------------------------------------------------------ *)
(* SCC condensation and the effect fixpoint                            *)

let sorted_calls d =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) d.calls [])

let compute_effects t =
  let effects = Hashtbl.create (Hashtbl.length t.nodes) in
  (* Tarjan. The traversal order over roots is sorted for determinism,
     though the resulting effect assignment is order-independent. *)
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let counter = ref 0 in
  let rec strongconnect id =
    Hashtbl.replace index id !counter;
    Hashtbl.replace lowlink id !counter;
    incr counter;
    stack := id :: !stack;
    Hashtbl.replace on_stack id ();
    let d = Hashtbl.find t.nodes id in
    List.iter
      (fun callee ->
        if Hashtbl.mem t.nodes callee then
          if not (Hashtbl.mem index callee) then begin
            strongconnect callee;
            Hashtbl.replace lowlink id
              (min (Hashtbl.find lowlink id) (Hashtbl.find lowlink callee))
          end
          else if Hashtbl.mem on_stack callee then
            Hashtbl.replace lowlink id
              (min (Hashtbl.find lowlink id) (Hashtbl.find index callee)))
      (sorted_calls d);
    if Hashtbl.find lowlink id = Hashtbl.find index id then begin
      (* Pop the component. Tarjan emits callees-first, so every edge
         out of this SCC lands on an already-computed component and one
         union over the members suffices — the fixpoint. *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | top :: rest ->
          stack := rest;
          Hashtbl.remove on_stack top;
          if String.equal top id then top :: acc else pop (top :: acc)
      in
      let members = pop [] in
      let eff =
        List.fold_left
          (fun acc m ->
            let d = Hashtbl.find t.nodes m in
            let acc =
              List.fold_left
                (fun acc (name, _) -> Effect_sig.add acc name)
                acc d.own
            in
            List.fold_left
              (fun acc callee ->
                match Hashtbl.find_opt effects callee with
                | Some e -> Effect_sig.union acc e
                | None -> acc)
              acc (sorted_calls d))
          Effect_sig.empty members
      in
      List.iter (fun m -> Hashtbl.replace effects m eff) members
    end
  in
  let roots =
    List.sort String.compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [])
  in
  List.iter (fun id -> if not (Hashtbl.mem index id) then strongconnect id) roots;
  t.effects <- effects

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let build files =
  let t = create () in
  let collected =
    List.map
      (fun (path, structure, sup) ->
        (collect_unit t ~path ~sup structure, structure))
      files
  in
  List.iter (fun (u, structure) -> link_unit t u structure) collected;
  seed_mutable_state t;
  compute_effects t;
  t

let effects_of t id =
  match Hashtbl.find_opt t.effects id with
  | Some e -> e
  | None -> Effect_sig.empty

type info = {
  id : string;
  file : string;
  line : int;
  end_line : int;
  parallel_safe : bool;
  effects : Effect_sig.t;
}

let info_of_def t (d : def) =
  {
    id = d.id;
    file = d.d_file;
    line = d.d_line;
    end_line = d.d_end_line;
    parallel_safe = d.d_parallel_safe;
    effects = effects_of t d.id;
  }

let nodes t =
  Hashtbl.fold (fun _ d acc -> info_of_def t d :: acc) t.nodes []
  |> List.sort (fun a b -> String.compare a.id b.id)

let witness_chain t ~from eff =
  let target_own d =
    List.find_map (fun (n, prim) -> if n = eff then Some prim else None) d.own
  in
  match Hashtbl.find_opt t.nodes from with
  | None -> None
  | Some start ->
    let visited = Hashtbl.create 64 in
    let queue = Queue.create () in
    Queue.add (from, [ from ]) queue;
    Hashtbl.replace visited from ();
    let rec bfs () =
      match Queue.take_opt queue with
      | None -> None
      | Some (id, rev_path) -> begin
        let d = Hashtbl.find t.nodes id in
        match target_own d with
        | Some prim -> Some (List.rev rev_path, prim)
        | None ->
          List.iter
            (fun callee ->
              if
                Hashtbl.mem t.nodes callee
                && (not (Hashtbl.mem visited callee))
                && Effect_sig.has (effects_of t callee) eff
              then begin
                Hashtbl.replace visited callee ();
                Queue.add (callee, callee :: rev_path) queue
              end)
            (sorted_calls d);
          bfs ()
      end
    in
    ignore start;
    bfs ()

let node_count t = Hashtbl.length t.nodes

let edge_count t =
  Hashtbl.fold (fun _ d acc -> acc + Hashtbl.length d.calls) t.nodes 0
