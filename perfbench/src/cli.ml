(* perfbench --workload NAME --seed N --seconds S --trace 0|1 [params]

   Runs one workload and prints, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the same untraced
   run is followed by a traced replay of its inputs and the metrics are
   the per-layer ones. The workload parameters arrive as flags (run.py
   reads them from plan.json); nothing about them is derived at run
   time. Human-readable detail goes to stderr.

   The same executable is also the benchmark's two child processes:
   [--role daemon --dir D] and [--role fixture --dir D ...]. *)

let ( // ) = Filename.concat

let flags argv =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> Ok acc
    | k :: _ -> Error ("unexpected argument " ^ k)
  in
  go [] (List.tl (Array.to_list argv))

let get fs k = match List.assoc_opt k fs with Some v -> v | None -> failwith ("missing --" ^ k)
let int fs k = match int_of_string_opt (get fs k) with Some v -> v | None -> failwith ("bad --" ^ k)
let float fs k = match float_of_string_opt (get fs k) with Some v -> v | None -> failwith ("bad --" ^ k)

let mkdir_p d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let fixture_params fs =
  {
    Fixture.seed = int fs "seed";
    creators = int fs "creators";
    replica_blocks = int fs "replica-blocks";
  }

let fleet_params fs =
  {
    Fleet.side = int fs "fleet-side";
    appends = int fs "fleet-appends";
    heal_ms = float fs "fleet-heal-ms";
    horizon_ms = float fs "fleet-horizon-ms";
  }

let print_metrics title ms =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun (x : Report.metric) ->
      Printf.eprintf "  %-34s %14.4f %s\n" x.Report.name x.Report.value x.Report.unit)
    ms;
  flush stderr

let run_workload fs =
  let workload = get fs "workload" and seed = int fs "seed" in
  let seconds = float fs "seconds" and trace = int fs "trace" = 1 in
  let work = get fs "work" in
  mkdir_p work;
  match workload with
  | "catch-up" ->
    let t0 = Unix.gettimeofday () in
    let fx = Fixture.build ~exe:Sys.executable_name ~dir:(work // "fixture") (fixture_params fs) in
    Printf.eprintf "fixture ready in %.1fs\n%!" (Unix.gettimeofday () -. t0);
    let r = Catch_up.run ~exe:Sys.executable_name ~fx ~work ~seconds in
    let e2e = Report.catch_up r in
    print_metrics (Printf.sprintf "catch-up (untraced): %d exchanges, %d blocks" r.Catch_up.attempted
                     r.Catch_up.blocks) e2e;
    Printf.eprintf "  latency deciles (ms): %s\n"
      (String.concat " "
         (List.map
            (fun p -> Printf.sprintf "%.1f" (Report.opt (Stats.percentile r.Catch_up.latencies_ms p)))
            [ 0.; 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 95.; 99.; 100. ]));
    Printf.eprintf "  set-ups (s): %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") r.Catch_up.setup_trials));
    (match Stats.supported_tail ~n:r.Catch_up.attempted with
    | Some p ->
      Printf.eprintf "  ten-beyond rule: %d samples support p%g\n%!" r.Catch_up.attempted p
    | None -> Printf.eprintf "  ten-beyond rule: %d samples support no tail\n%!" r.Catch_up.attempted);
    let metrics = if trace then Replay.catch_up ~work ~fx ~run:r ~e2e else e2e in
    {
      Report.correct = r.Catch_up.correct;
      attempted = r.Catch_up.attempted;
      failed = r.Catch_up.attempted - r.Catch_up.ok;
      metrics;
    }
  | "fleet-sim" ->
    let p = fleet_params fs in
    let is = Fleet.run ~seed ~seconds p in
    let e2e = Report.fleet is in
    print_metrics (Printf.sprintf "fleet-sim (untraced): %d instances" (List.length is)) e2e;
    Printf.eprintf "  set-ups (s): %s\n%!"
      (String.concat " " (List.map (fun i -> Printf.sprintf "%.3f" i.Fleet.build_s) is));
    let sessions =
      List.fold_left (fun a i -> a + i.Fleet.sessions_completed + i.Fleet.sessions_aborted) 0 is
    in
    let completed = List.fold_left (fun a i -> a + i.Fleet.sessions_completed) 0 is in
    let metrics = if trace then Replay.fleet ~work ~seed ~p ~instances:is ~e2e else e2e in
    {
      Report.correct = List.for_all (fun i -> i.Fleet.ok) is;
      attempted = sessions;
      failed = sessions - completed;
      metrics;
    }
  | w -> failwith ("unknown workload " ^ w)

let main argv =
  match flags argv with
  | Error e ->
    prerr_endline e;
    2
  | Ok fs -> (
    match List.assoc_opt "role" fs with
    | Some "daemon" -> Daemon.run ~dir:(get fs "dir")
    | Some "fixture" -> Fixture.role ~dir:(get fs "dir") (fixture_params fs)
    | Some _ | None -> (
      match run_workload fs with
      | r ->
        let r = Report.finish r in
        print_endline (Report.to_json r);
        0
      | exception e ->
        Daemon.kill_all ();
        prerr_endline
          ("perfbench: "
          ^
          match e with
          | Failure msg | Sys_error msg -> msg
          | Unix.Unix_error (err, f, _) -> f ^ ": " ^ Unix.error_message err
          | e -> Printexc.to_string e);
        1))
