(* Process accounting from Linux /proc: CPU time (the rusage utime and
   stime fields of /proc/PID/stat) and peak resident set (VmHWM of
   /proc/PID/status). Reading another process's files lets the generator
   charge the daemon's CPU over exactly the measured window. *)

(* USER_HZ: the unit of the utime/stime fields. Linux fixes it at 100
   for every architecture the benchmark runs on. *)
let ticks_per_s = 100.

(* Fields after the command name, which is parenthesised and may itself
   contain spaces or parentheses: split after the last ')'. utime and
   stime are fields 14 and 15 of the line, i.e. the 12th and 13th after
   the name. *)
let parse_stat line =
  match String.rindex_opt line ')' with
  | None -> None
  | Some i -> begin
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let fields =
      List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim rest))
    in
    match List.filteri (fun k _ -> k = 11 || k = 12) fields with
    | [ u; s ] -> begin
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Some (u, s)
      | _ -> None
    end
    | _ -> None
  end

(* "VmHWM:     12345 kB" -> 12345 *)
let parse_vmhwm status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> begin
           match
             List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim v))
           with
           | [ n; "kB" ] -> int_of_string_opt n
           | _ -> None
         end
         | _ -> None)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let proc_file pid name =
  Printf.sprintf "/proc/%s/%s"
    (match pid with None -> "self" | Some p -> string_of_int p)
    name

(* User plus system CPU seconds of [pid] (default: this process). *)
let cpu_s ?pid () =
  match Option.bind (read (proc_file pid "stat")) parse_stat with
  | Some (u, s) -> float_of_int (u + s) /. ticks_per_s
  | None -> nan

let vmhwm_mb ?pid () =
  match Option.bind (read (proc_file pid "status")) parse_vmhwm with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan
