(** Four {!Reconcile} functions under an older module name, kept for the
    benchmark's traced replay. Everything else calls {!Reconcile}. *)

val decode_message : Wire.cursor -> Reconcile.message
val encode_message : Buffer.t -> Reconcile.message -> unit
val is_request : Reconcile.message -> bool
val respond : Dag.t -> Reconcile.message -> Reconcile.message option
