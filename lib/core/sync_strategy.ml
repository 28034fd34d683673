(* The four names the benchmark's traced replay (perfbench/src/replay.ml)
   still calls under this module's name. *)
let decode_message = Reconcile.decode_message
let encode_message = Reconcile.encode_message
let is_request = Reconcile.is_request
let respond = Reconcile.respond
