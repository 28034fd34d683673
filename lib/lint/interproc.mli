(** The interprocedural rules: purity boundaries and domain safety.

    Both operate on the whole-repo {!Callgraph} and report findings at
    the flagged definition, with a message that ends in a witness call
    chain ([entry -> f -> g -> Unix.gettimeofday]). Findings carry a
    stable {!Finding.t.key}. *)

val check_boundaries :
  Callgraph.t -> Boundaries.boundary list -> Finding.t list
(** One [boundary-purity] finding per (boundary, forbidden effect,
    violating entry point) triple. An entry point is any definition
    whose file falls under one of the boundary's scopes. *)

val check_parallel_safety : Callgraph.t -> Finding.t list
(** One [parallel-safety] finding per definition annotated
    [(* lint: parallel-safe *)] whose transitive effects include
    [Mutates_global]. *)
