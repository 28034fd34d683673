(** Data-parallel maps over a process-wide pool of worker domains.

    The pool holds [Domain.recommended_domain_count () - 1] workers. They
    are spawned once, by the first {!map} of at least two items, and live
    until the process exits; the calling domain takes a share of every
    map. A map of fewer than two items, a map on a 1-CPU host, and a map
    started while another is running compute sequentially on the
    caller, with no domain.

    Once a domain has been spawned, OCaml 5.1 refuses to fork the
    process for the rest of its life (even after [Domain.join]). A
    process that may map must start its children with
    [Unix.create_process]. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] is [Array.map f xs]. [f] runs on several domains at once,
    so it must not touch shared mutable state; annotate it
    [(* lint: parallel-safe *)] so the linter proves that. If [f] raises,
    the first failing item's exception (in index order) is re-raised
    once every item has finished. *)

val spawned : unit -> int
(** Worker domains this process has spawned: 0 before the first parallel
    map, at most [Domain.recommended_domain_count () - 1] after. *)
