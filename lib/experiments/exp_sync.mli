(** E12 — Sync-strategy redundancy sweep (§IV-G).

    The same clique-8 fleet, append schedule, and seed under every
    {!Vegvisir.Reconcile.mode}. The naive Algorithm-1 escalation
    re-ships almost everything a receiver already holds (95–98%
    redundancy in a clique); the digest strategy narrows height-interval
    digests to the exact missing set, so redundancy collapses to single
    digits at equal convergence lag. *)

val run : ?quick:bool -> unit -> Report.table
