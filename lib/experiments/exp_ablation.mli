(** E8 — Reconciliation ablation: naive level-escalation vs the bloom
    and digest set-reconciliation protocols (§VI future work), on
    {e mutual} divergence.

    Both replicas extend a shared braided history independently, so each
    side holds blocks the other lacks. A full exchange is two pulls.
    Bloom ships the missing blocks in one round trip per direction,
    digest narrows in O(log height) rounds and then fetches exactly the
    missing blocks; the naive protocol escalates and re-transfers. *)

val run : ?quick:bool -> unit -> Report.table
