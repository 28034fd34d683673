(** E2 — Frontier-set reconciliation cost (Algorithm 1, Fig. 3, §IV-G).

    Two replicas diverge by d blocks; the initiator pulls with the paper's
    level-escalating frontier exchange. Reports round trips, transferred
    bytes, and redundant block transfers versus the divergence depth, with
    a full-DAG-exchange baseline column. Expected shape: rounds grow with
    the {e depth} of the divergence; bytes grow quadratically for the
    naive protocol on deep chains (each escalation re-sends the previous
    levels) but stay linear for the digest variant. *)

val run : ?quick:bool -> unit -> Report.table
