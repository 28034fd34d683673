(* The end-to-end metrics of one run and the result line the benchmark
   prints last. *)

type metric = { name : string; value : float; unit : string }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let m name unit value = { name; value; unit }
let opt = function Some v -> v | None -> Float.nan

let median xs = opt (Stats.median xs)
let p99 xs = opt (Stats.percentile xs 99.)
let div a b = if b = 0. then Float.nan else a /. b
let per_block ~cost ~blocks = opt (Stats.per_block ~cost ~blocks)

let catch_up (r : Catch_up.run) =
  let open Catch_up in
  let blocks = float_of_int r.blocks in
  [
    m "setup_s" "s" (median r.setup_trials);
    m "exchange_p50_ms" "ms" (median r.latencies_ms);
    m "exchange_p99_ms" "ms" (p99 r.latencies_ms);
    (* closed loop: blocks pulled per second spent exchanging *)
    m "blocks_per_s" "1/s" (div blocks r.busy_s);
    m "cpu_ms_per_block" "ms" (div (r.cpu_s *. 1000.) blocks);
    m "wire_bytes_per_block" "B"
      (per_block ~cost:(List.map fst r.wire) ~blocks:(List.map snd r.wire));
    m "max_rss_mb" "MB" r.max_rss_mb;
    m "success_ratio" "ratio" (div (float_of_int r.ok) (float_of_int r.attempted));
    m "convergence_lag_s" "s" (opt (Stats.mean r.latencies_ms) /. 1000.);
  ]

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let fleet (is : Fleet.instance list) =
  let open Fleet in
  let deliveries = float_of_int (isum (fun i -> i.deliveries) is) in
  let completed = isum (fun i -> i.sessions_completed) is
  and aborted = isum (fun i -> i.sessions_aborted) is in
  [
    m "setup_s" "s" (median (List.map (fun i -> i.build_s) is));
    (* per-instance session percentiles, median over instances *)
    m "exchange_p50_ms" "ms" (median (List.map (fun i -> i.session_p50_ms) is));
    m "exchange_p99_ms" "ms" (median (List.map (fun i -> i.session_p99_ms) is));
    m "blocks_per_s" "1/s" (div deliveries (sum (fun i -> i.run_s) is));
    m "cpu_ms_per_block" "ms" (div (sum (fun i -> i.cpu_s) is *. 1000.) deliveries);
    m "wire_bytes_per_block" "B"
      (div (float_of_int (isum (fun i -> i.bytes) is))
         (float_of_int (isum (fun i -> i.blocks_received) is)));
    m "max_rss_mb" "MB" (Proc.vmhwm_mb ());
    m "success_ratio" "ratio"
      (if List.for_all (fun i -> i.ok) is then
         div (float_of_int completed) (float_of_int (completed + aborted))
       else 0.);
    m "convergence_lag_s" "s" (median (List.map (fun i -> i.lag_s) is));
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let to_json r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
          x.unit)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " metrics)

(* A run whose metrics are not all finite numbers is not a result (the
   JSON line still carries numbers, but the run is marked incorrect). *)
let finish r =
  if List.for_all (fun x -> Float.is_finite x.value) r.metrics then r
  else { r with correct = false }
