(* Instrumentation-drift gate for @bench-check.

   Usage: check_drift.exe SNAPSHOT.json FRESH.json

   Both files are BENCH_obs.json-shaped (written by bench/main.exe).
   For every guarded row present in BOTH files — the bus-emit cost, each
   monitor/live-bus overhead leg, the sync-strategy rows, and the core
   hashing/verification rows — the fresh ns/op must not exceed 3x the
   tracked snapshot. Exceeding the gate exits 1 so the alias
   fails; rows present on only one side are reported but never fatal
   (new benchmarks land before their snapshot does). The 3x bound is
   deliberately loose: it catches accidental O(n) regressions on the
   hot emit path, not machine-to-machine noise. *)

let tolerance = 3.0

(* A row timed on the SHA-NI kernel is its OCaml-kernel row's name plus
   "-sha-ni" (bench/main.ml), guarded alike. *)
let strip_kernel name =
  let suffix = "-sha-ni" in
  let n = String.length name and m = String.length suffix in
  if n >= m && String.equal (String.sub name (n - m) m) suffix then String.sub name 0 (n - m)
  else name

(* A row is guarded when a regression in it means the daemon's
   always-on telemetry, anti-entropy, or block verification got slower. *)
let guarded name =
  let has_suffix s suf =
    let n = String.length s and m = String.length suf in
    n >= m && String.equal (String.sub s (n - m) m) suf
  in
  let has_prefix s pre =
    let n = String.length s and m = String.length pre in
    n >= m && String.equal (String.sub s 0 m) pre
  in
  has_suffix name "/bus-emit"
  || has_suffix name "-monitor"
  || has_suffix name "-live"
  || has_suffix name "/scoreboard-observe"
  (* Every sync-strategy micro row: a regression here means anti-entropy
     itself got slower, the cost the whole redesign exists to shrink. *)
  || has_prefix name "M15-sync/"
  (* The span/flight emit rows: the collector and ring ride the daemon's
     always-on bus, and the null-baseline leg anchors their overhead.
     chrome-export is offline (vv trace --chrome) and too GC-noisy to
     gate, so only the emit-* legs are guarded. *)
  || has_prefix name "M16-trace/emit-"
  (* SHA-256 and the verify path every received block pays: a catch-up
     after a partition is almost all W-OTS chain steps. *)
  || has_prefix name "M1-sha256/"
  || List.mem (strip_kernel name)
       [
         "M2-signatures/wots-verify";
         "M2-signatures/mss-verify";
         "M2-signatures/wots-chain-15";
         (* The batch intake a rejoining replica runs, and the per-block
            fold beside it. *)
         "M2-signatures/intake-200";
         "M2-signatures/intake-200-each";
         (* The key re-derivation every store load runs. *)
         "M2-signatures/mss-keygen-h8";
       ]

(* Minimal extraction of [("name", ns_per_op)] pairs from the snapshot
   JSON: every result row is written on its own line as
   [{"name": "...", "ns_per_op": N, ...}], so a line scan is enough —
   no JSON parser dependency. *)
let rows_of_file path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         let find_sub needle =
           let nh = String.length line and nn = String.length needle in
           let rec scan i =
             if i + nn > nh then None
             else if String.equal (String.sub line i nn) needle then
               Some (i + nn)
             else scan (i + 1)
           in
           scan 0
         in
         match (find_sub "\"name\": \"", find_sub "\"ns_per_op\": ") with
         | Some n0, Some v0 ->
           let n1 = ref n0 in
           while !n1 < String.length line && line.[!n1] <> '"' do incr n1 done;
           let v1 = ref v0 in
           while
             !v1 < String.length line
             && (match line.[!v1] with
                | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
                | _ -> false)
           do
             incr v1
           done;
           Option.map
             (fun ns -> (String.sub line n0 (!n1 - n0), ns))
             (float_of_string_opt (String.sub line v0 (!v1 - v0)))
         | _ -> None)

let () =
  (match Sys.argv with
  | [| _; _; _ |] -> ()
  | _ ->
    prerr_endline "usage: check_drift.exe SNAPSHOT.json FRESH.json";
    exit 2);
  let snapshot = rows_of_file Sys.argv.(1) in
  let fresh = rows_of_file Sys.argv.(2) in
  if fresh = [] then begin
    Printf.eprintf "check_drift: no rows in %s\n" Sys.argv.(2);
    exit 2
  end;
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (name, fresh_ns) ->
      if guarded name then begin
        match List.assoc_opt name snapshot with
        | None ->
          Printf.printf "  %-42s NEW (%.1f ns/op, no snapshot row)\n" name
            fresh_ns
        | Some snap_ns ->
          incr checked;
          let ratio = fresh_ns /. snap_ns in
          let verdict =
            if ratio > tolerance then begin
              incr failures;
              "REGRESSED"
            end
            else "ok"
          in
          Printf.printf "  %-42s %8.1f -> %8.1f ns/op  (%.2fx) %s\n" name
            snap_ns fresh_ns ratio verdict
      end)
    fresh;
  List.iter
    (fun (name, _) ->
      if guarded name && not (List.mem_assoc name fresh) then
        Printf.printf "  %-42s MISSING from fresh run\n" name)
    snapshot;
  if !checked = 0 then begin
    Printf.eprintf "check_drift: no guarded rows in common — wrong files?\n";
    exit 2
  end;
  if !failures > 0 then begin
    Printf.eprintf
      "check_drift: %d row(s) regressed beyond %.1fx the tracked snapshot\n"
      !failures tolerance;
    exit 1
  end;
  Printf.printf "check_drift: %d guarded row(s) within %.1fx of snapshot\n"
    !checked tolerance
