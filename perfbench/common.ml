(* Shared pieces: the metric catalogue, order statistics, /proc probes, the
   environment stamp and the exact-counter ledger. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("answers_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Printed beside the end-to-end metrics but not in the result, so not
   gated: ten 40-second serve runs spread by up to 0.30 of the median p99
   between quartiles, more than any bound a gate may set. *)
let ungated = [ ("latency_p99_ms", "ms") ]

(* Every per-layer metric is printed on every workload; a layer a
   workload never enters reads 0. *)
let per_layer =
  [
    ("synth.generate_ms", "ms");
    ("fortran.parse_ms", "ms");
    ("coverage.probe_ms", "ms");
    ("metagraph.build_ms", "ms");
    ("metagraph.nodes", "count");
    ("metagraph.arcs", "count");
    ("interp.runs", "count");
    ("interp.run_ms_p50", "ms");
    ("interp.busy_ms", "ms");
    ("ect.fit_ms", "ms");
    ("ect.evaluate_ms", "ms");
    ("stats.median_distance_ms", "ms");
    ("stats.lasso_ms", "ms");
    ("core.freeze_ms", "ms");
    ("core.slice_ms", "ms");
    ("core.refine_ms", "ms");
    ("core.slice_nodes", "count");
    ("core.iterations", "count");
    ("core.final_nodes", "count");
    ("core.sampled_sites", "count");
    ("graph.gn_step_ms", "ms");
    ("graph.gn_recomputes", "count");
    ("graph.sources_rescored", "count");
    ("graph.greedy_ms", "ms");
    ("graph.eigenvector_ms", "ms");
    ("serve.snapshot_save_ms", "ms");
    ("serve.snapshot_bytes", "bytes");
    ("serve.start_ms", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.hit_p50_ms", "ms");
    ("serve.reply_bytes_p50", "bytes");
    ("serve.encode_ms_p50", "ms");
    ("serve.decode_ms_p50", "ms");
    ("serve.transport_ms_p50", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.server_p50_ms", "ms");
    ("serve.compute_p50_ms", "ms");
    ("serve.cache_misses", "count");
    ("serve.coalesced", "count");
    ("serve.inline_runs", "count");
    ("obs.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio");
  ]

(* --- order statistics ---------------------------------------------------- *)

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

(* --- /proc probes --------------------------------------------------------- *)

let input_lines ic =
  let rec go acc = match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc in
  go []

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let lines = input_lines ic in
      close_in ic;
      lines

let status_field pid key =
  read_lines (Printf.sprintf "/proc/%s/status" pid)
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> failwith "VmHWM unreadable")
  | None -> failwith (Printf.sprintf "no VmHWM for process %s" pid)

(* (steal, total) CPU ticks from /proc/stat: time the hypervisor ran
   something else while this machine's CPUs wanted to run.  On a shared
   host it is the main source of run-to-run noise, so runs report it. *)
let cpu_ticks () =
  match read_lines "/proc/stat" with
  | first :: _ when String.length first > 4 && String.sub first 0 4 = "cpu " -> (
      let fields =
        String.split_on_char ' ' first |> List.filter (( <> ) "") |> List.tl |> List.map int_of_string
      in
      match fields with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          (steal, user + nice + system + idle + iowait + irq + softirq + steal)
      | _ -> (0, 0))
  | _ -> (0, 0)

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match status_field "self" "Cpus_allowed_list" with
  | None -> 0
  | Some list ->
      String.split_on_char ',' list
      |> List.fold_left
           (fun acc range ->
             match String.split_on_char '-' (String.trim range) with
             | [ a ] when a <> "" -> acc + 1
             | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
             | _ -> acc)
           0

(* --- environment stamp ---------------------------------------------------- *)

let work_dir = "perfbench/_work"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Digest of the program and benchmark sources: the identity of the code
   being measured, also where no git metadata exists. *)
let tree_digest () =
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if entry = "_work" || entry = "_build" then acc
        else if Sys.is_directory path then walk path acc
        else path :: acc)
      acc
      (match Sys.readdir dir with a -> a | exception Sys_error _ -> [||])
  in
  [ "lib"; "bin"; "perfbench" ]
  |> List.concat_map (fun d -> walk d [])
  |> List.sort compare
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let commit () =
  if not (Sys.file_exists ".git") then "none (not a git checkout)"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
        let line = try input_line ic with End_of_file -> "unknown" in
        ignore (Unix.close_process_in ic);
        line

(* --- exact-counter ledger ---------------------------------------------------- *)

(* Counters that must repeat exactly for a seed are stored per source
   digest, workload, seed and trace mode; a later run of the same code and
   seed that disagrees fails. *)
let check_counters ~digest ~workload ~seed ~trace counters =
  let dir = Filename.concat work_dir "counters" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-%s-%d-%d" digest workload seed trace) in
  let lines = List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) counters in
  if Sys.file_exists path then
    let previous = read_lines path in
    if previous = lines then Ok ()
    else
      Error
        (Printf.sprintf "exact counters differ from an earlier run of this code and seed: was [%s], now [%s]"
           (String.concat "; " previous) (String.concat "; " lines))
  else begin
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Ok ()
  end

(* --- what a workload run returns ------------------------------------------------ *)

type outcome = {
  attempted : int;
  problems : string list;  (* one per failed answer, printed before the result *)
  metrics : (string * float) list;  (* end-to-end, or per-layer with --trace 1 *)
  counters : (string * int) list;  (* must repeat exactly for a seed *)
  notes : string list;  (* human-readable lines printed beside the metrics *)
  rows : Span.row list;  (* the traced run's layer report *)
  spans : Span.t list;
}

(* Count-valued metrics as the exact-counter ledger stores them. *)
let exact l = List.map (fun (k, v) -> (k, int_of_float v)) l

let per_answer timed = String.concat ", " (List.map (fun (k, ms) -> Printf.sprintf "%s %.0f ms" k ms) timed)

let elapsed_s t0 = Span.ms_between t0 (Span.now ()) /. 1e3

(* Spawn a program with its output discarded and wait for it. *)
let run_quiet exe args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull devnull)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed" exe (String.concat " " args))

(* The CLI built beside this benchmark. *)
let rca_main () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "rca_main.exe")
