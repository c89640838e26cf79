(* The repository benchmark: one command, three workloads.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --pin NAME              print the answer pins for Oracle
     main.exe --oneshot-child NAME    one oneshot-small answer, run by that workload
     main.exe --setup-child pipeline-gn-paper   one set-up, run by that workload

   With --trace 0 the run measures the end-to-end metrics with tracing
   off; with --trace 1 it runs the same work once untraced and once
   traced, and reports per-layer metrics and a {layer, count, total_ms,
   self_ms, share} table.  Every answer is checked; the last line of
   stdout is the JSON result, and the exit code is non-zero when any
   answer failed. *)

module J = Rca_serve.Jsonio

let workloads =
  [
    ("oneshot-small", Oneshot.run);
    ("pipeline-gn-paper", Pipeline_gn.run);
    ("serve-mixed-small", Serve_mixed.run);
  ]

let pins = [ ("oneshot-small", Oneshot.pin); ("pipeline-gn-paper", Pipeline_gn.pin) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --pin NAME";
  exit 2

let fmt v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_rows (rows : Span.row list) =
  Printf.printf "%-10s %-26s %7s %12s %12s %7s\n" "section" "layer" "count" "total_ms" "self_ms" "share";
  List.iter
    (fun (r : Span.row) ->
      Printf.printf "%-10s %-26s %7d %12.3f %12.3f %6.1f%%%s\n" r.Span.section r.Span.layer r.Span.count
        r.Span.total_ms r.Span.self_ms (100.0 *. r.Span.share)
        (if r.Span.layer = r.Span.section then "  (unattributed)" else ""))
    rows

let main workload seed seconds trace =
  let run =
    match List.assoc_opt workload workloads with Some f -> f | None -> usage ()
  in
  if not (Sys.file_exists "lib" && Sys.file_exists "bin") then begin
    prerr_endline "run from the root of the repository";
    exit 2
  end;
  Common.mkdir_p Common.work_dir;
  let digest = Common.tree_digest () in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" workload seed seconds (if trace then 1 else 0);
  Printf.printf "env commit=%s tree=%s nproc=%d recommended_domains=%d ocaml=%s\n%!" (Common.commit ())
    digest (Common.nproc ()) (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let steal0, total0 = Common.cpu_ticks () in
  let o = run ~seed ~seconds ~trace in
  let steal1, total1 = Common.cpu_ticks () in
  List.iter (fun n -> print_endline n) o.Common.notes;
  if total1 > total0 then
    Printf.printf "host steal during the run: %.1f%% of CPU time\n"
      (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0));
  let catalogue = if trace then Common.per_layer else Common.end_to_end in
  let value name = Option.value ~default:0.0 (List.assoc_opt name o.Common.metrics) in
  List.iter (fun (name, unit) -> Printf.printf "%-26s %16s %s\n" name (fmt (value name)) unit) catalogue;
  if not trace then
    List.iter
      (fun (name, unit) -> Printf.printf "%-26s %16s %s (not gated)\n" name (fmt (value name)) unit)
      Common.ungated;
  let failed = List.length o.Common.problems in
  Printf.printf "%-26s %16s ratio (%d of %d answers failed)\n" "failed_frac"
    (fmt (if o.Common.attempted = 0 then 1.0 else float_of_int failed /. float_of_int o.Common.attempted))
    failed o.Common.attempted;
  Printf.printf "exact counters: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.Common.counters));
  if trace then begin
    print_rows o.Common.rows;
    let path = Filename.concat Common.work_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
    Span.write path o.Common.spans o.Common.rows;
    Printf.printf "spans and layer report written to %s\n" path
  end;
  let non_finite =
    List.filter_map
      (fun (name, _) ->
        if Float.is_finite (value name) then None else Some (name ^ " is not a finite number"))
      catalogue
  in
  let problems = o.Common.problems @ non_finite in
  (* Only a run without problems may consult or start the ledger, so a
     failed run cannot store counters that later runs are held to. *)
  let problems =
    if problems <> [] then begin
      print_endline "exact counters not checked against the ledger: the run failed";
      problems
    end
    else
      match Common.check_counters ~digest ~workload ~seed ~trace:(if trace then 1 else 0) o.Common.counters with
      | Ok () -> []
      | Error e -> [ e ]
  in
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) problems;
  let correct = problems = [] && o.Common.attempted > 0 in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.num (max 1 o.Common.attempted));
            ("failed", J.num (if correct then 0 else max 1 failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, unit) -> (name, J.Obj [ ("value", J.Num (value name)); ("unit", J.Str unit) ]))
                   catalogue) );
          ]));
  exit (if correct then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  match (List.assoc_opt "pin" opts, List.assoc_opt "oneshot-child" opts, List.assoc_opt "setup-child" opts) with
  | Some name, _, _ -> (match List.assoc_opt name pins with Some f -> f () | None -> usage ())
  | None, Some name, _ -> Oneshot.child name
  | None, None, Some "pipeline-gn-paper" -> Pipeline_gn.setup_child ()
  | None, None, Some _ -> usage ()
  | None, None, None -> (
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      match
        (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace")
      with
      | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0.0 ->
          main (get "workload") seed seconds (t = "1")
      | _ -> usage ())
