open Vegvisir_net
module V = Vegvisir
module Value = Vegvisir_crdt.Value
module Schema = Vegvisir_crdt.Schema
module Obs = Vegvisir_obs

let log_spec = Schema.spec Schema.Gset Value.T_string

let add_entry gossip i entry =
  match
    V.Node.prepare_transaction (Gossip.node gossip i) ~crdt:"log" ~op:"add"
      [ Value.String entry ]
  with
  | Error _ -> false
  | Ok tx -> begin
    match Gossip.append gossip i [ tx ] with Ok _ -> true | Error _ -> false
  end

let drive fleet ~until_ms ~step_ms f =
  let rec go t =
    if t <= until_ms then begin
      Scenario.run fleet ~until_ms:t;
      f t;
      go (t +. step_ms)
    end
  in
  go step_ms;
  Scenario.run fleet ~until_ms

let offline_pair () =
  let sa = V.Signer.oracle ~id:"offline-a" () in
  let sb = V.Signer.oracle ~id:"offline-b" () in
  let ca = V.Certificate.self_signed ~signer:sa ~role:"ca" in
  let cb = V.Certificate.issue ~ca ~ca_signer:sa ~subject:sb ~role:"member" in
  let genesis =
    V.Node.genesis_block ~signer:sa ~cert:ca ~timestamp:(V.Timestamp.of_ms 0L)
      ~extra:
        [ V.Transaction.create_crdt ~name:"log" log_spec;
          V.Transaction.add_user cb ]
      ()
  in
  let a = V.Node.create ~signer:sa ~cert:ca () in
  let b = V.Node.create ~signer:sb ~cert:cb () in
  ignore (V.Node.receive a ~now:(V.Timestamp.of_ms 1L) genesis);
  ignore (V.Node.receive b ~now:(V.Timestamp.of_ms 1L) genesis);
  (a, b, genesis)

let append_chain node ~label ~n =
  for i = 1 to n do
    let now = V.Timestamp.of_ms (Int64.of_int (i * 10)) in
    match
      V.Node.prepare_transaction node ~crdt:"log" ~op:"add"
        [ Value.String (Printf.sprintf "%s-%d" label i) ]
    with
    | Error _ -> ()
    | Ok tx -> ignore (V.Node.append node ~now [ tx ])
  done

type arrivals = {
  births : (V.Hash_id.t, float) Hashtbl.t;
  reached : (Obs.Event.node * V.Hash_id.t, float) Hashtbl.t;
  obs : Obs.Context.t;
  sink : Obs.Sink.t;
}

let first tbl key ts = if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key ts

(* A block is born where it is [Created] and reaches every other peer
   when it is [Delivered] there; both carry the emitter's clock. *)
let record ~births ~reached ~ts ev =
  match[@warning "-4"] ev with
  | Obs.Event.Block { node; phase = Obs.Event.Created; block; _ } ->
    first births block ts;
    first reached (node, block) ts
  | Obs.Event.Block { node; phase = Obs.Event.Delivered; block; _ } ->
    first reached (node, block) ts
  | _ -> ()

let track_arrivals obs =
  let births = Hashtbl.create 64 and reached = Hashtbl.create 256 in
  let sink = Obs.Sink.make (record ~births ~reached) in
  Obs.Context.attach obs sink;
  { births; reached; obs; sink }

let untrack a = Obs.Context.detach a.obs a.sink
let birth a h = Hashtbl.find_opt a.births h
let arrival a ~peer h = Hashtbl.find_opt a.reached (string_of_int peer, h)

let delays a ~peers ~scale hashes =
  let delays = ref [] and missing = ref 0 in
  List.iter
    (fun h ->
      let born =
        match birth a h with
        | Some b -> b
        | None -> failwith "Workload.delays: no Created event for a block"
      in
      for i = 0 to peers - 1 do
        match arrival a ~peer:i h with
        | Some t -> delays := ((t -. born) /. scale) :: !delays
        | None -> incr missing
      done)
    hashes;
  (!delays, !missing)
