(* oneshot-small: the user's one-shot path.  [Harness.run] as
   `rca_main experiment <name> --scale small` calls it with the CLI
   defaults (20 control members, 8 experimental members, exact G-N with
   gn_approx 128, runtime-sampling cross-check on, one domain).  A pass
   runs all six paper experiments in an order drawn from the seed: their
   costs differ by up to a quarter, so a seeded subset would make the
   figures depend on the draw rather than on the code.  Every step is in
   the timed phase, because users pay all of it on every run; the only
   set-up is starting the CLI process.  Each answer runs in a fresh
   process, as a one-shot user's does.  The workload is not in
   BENCHMARK.json: a pass takes 17-21 s, and on a shared host one pass
   can run a quarter slower than the next, so a steady run would need
   several passes. *)

open Rca_experiments

let draw seed =
  let rng = Random.State.make [| seed |] in
  List.map (fun spec -> (Random.State.bits rng, spec)) Experiments.all
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let params () = Harness.default_params Rca_synth.Config.small

let same_report (a : Harness.report) (b : Harness.report) =
  let open Harness in
  a.ect_verdict = b.ect_verdict
  && a.median_selected = b.median_selected
  && a.lasso_selected = b.lasso_selected
  && a.affected_outputs = b.affected_outputs
  && a.slice_nodes = b.slice_nodes
  && a.slice_edges = b.slice_edges
  && a.bug_node_names = b.bug_node_names
  && a.pipeline.Rca_core.Pipeline.slice.Rca_core.Slice.nodes
     = b.pipeline.Rca_core.Pipeline.slice.Rca_core.Slice.nodes
  && a.pipeline.Rca_core.Pipeline.slice.Rca_core.Slice.targets
     = b.pipeline.Rca_core.Pipeline.slice.Rca_core.Slice.targets
  && a.pipeline.Rca_core.Pipeline.result = b.pipeline.Rca_core.Pipeline.result
  && a.bugs_located = b.bugs_located
  && a.sampling_agreement = b.sampling_agreement

(* Set-up: the one-shot user's fixed cost before Harness.run starts — a
   cold start of the CLI process.  The host's speed drifts over seconds,
   so a batch of cold starts is taken before every answer and setup_s is
   the median of all of them; their time is left out of the timed phase. *)
let cli_starts_per_answer = 8

let cli_starts () =
  let exe = Common.rca_main () in
  List.init cli_starts_per_answer (fun _ ->
      let t0 = Span.now () in
      Common.run_quiet exe [ "--version" ];
      Common.elapsed_s t0)

(* Result sizes of one answer, for the exact counters. *)
let sizes_of (r : Harness.report) =
  Steps.graph_sizes [ r.Harness.fixture.Fixture.mg ] @ Steps.result_sizes [ Oracle.of_report r ]

(* The child side of one answer: run Harness.run, check the answer against
   its pin, and report the result sizes and this process's peak RSS. *)
let child name =
  let spec = List.find (fun s -> s.Harness.name = name) Experiments.all in
  let r = Harness.run spec (params ()) in
  (match Oracle.check Oracle.oneshot_small name (Oracle.of_report r) with
  | Ok () -> ()
  | Error msg -> Printf.printf "problem %s\n" (String.escaped msg));
  List.iter (fun (k, v) -> Printf.printf "size %s %.17g\n" k v) (sizes_of r);
  Printf.printf "rss_mb %.17g\n" (Common.peak_rss_mb "self")

(* The parent side: time one answer from spawn to exit. *)
let in_child name =
  let exe = Sys.executable_name in
  let t0 = Span.now () in
  let ic = Unix.open_process_args_in exe [| exe; "--oneshot-child"; name |] in
  let lines = Common.input_lines ic in
  let status = Unix.close_process_in ic in
  let ms = Common.elapsed_s t0 *. 1e3 in
  let field line =
    match String.index_opt line ' ' with
    | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
    | None -> (line, "")
  in
  let problems, sizes, rss =
    List.fold_left
      (fun (ps, ss, rss) line ->
        match field line with
        | "problem", msg -> ((name ^ ": " ^ Scanf.unescaped msg) :: ps, ss, rss)
        | "size", kv ->
            let k, v = field kv in
            (ps, (k, float_of_string v) :: ss, rss)
        | "rss_mb", v -> (ps, ss, float_of_string v)
        | _ -> (ps, ss, rss))
      ([], [], 0.0) lines
  in
  let problems =
    if status = Unix.WEXITED 0 then problems else (name ^ ": answer process failed") :: problems
  in
  (ms, List.rev problems, List.rev sizes, rss)

let run ~seed ~seconds ~trace : Common.outcome =
  let specs = draw seed in
  let p = params () in
  let problems = ref [] and attempted = ref 0 in
  let answer (r : Harness.report) =
    incr attempted;
    match Oracle.check Oracle.oneshot_small r.Harness.spec.Harness.name (Oracle.of_report r) with
    | Ok () -> ()
    | Error msg -> problems := msg :: !problems
  in
  let pass f = List.map (fun spec -> (spec, f spec)) specs in
  let notes = [ "experiments: " ^ String.concat ", " (List.map (fun s -> s.Harness.name) specs) ] in
  let sum = function
    | [] -> []
    | first :: rest ->
        List.fold_left (List.map2 (fun (k, a) (_, b) -> (k, a +. b))) first rest
  in
  if not trace then begin
    let t0 = Span.now () in
    let starts = ref [] and setup_spent = ref 0.0 in
    let timed_s () = Common.elapsed_s t0 -. !setup_spent in
    let timed = ref [] and first = ref None and peak = ref 0.0 in
    while !timed = [] || timed_s () < seconds do
      let sizes =
        pass (fun spec ->
            let s0 = Span.now () in
            starts := cli_starts () @ !starts;
            setup_spent := !setup_spent +. Common.elapsed_s s0;
            let ms, ps, sizes, rss = in_child spec.Harness.name in
            incr attempted;
            problems := List.rev_append ps !problems;
            timed := (spec.Harness.name, ms) :: !timed;
            peak := Float.max !peak rss;
            sizes)
      in
      if !first = None then first := Some (sum (List.map snd sizes))
    done;
    let wall = timed_s () in
    let latencies = List.map snd !timed in
    {
      Common.attempted = !attempted;
      problems = List.rev !problems;
      metrics =
        [
          ("setup_s", Common.median !starts);
          ("answers_per_s", float_of_int !attempted /. wall);
          ("latency_p50_ms", Common.median latencies);
          ("latency_p99_ms", Common.quantile 0.99 latencies);
          ("peak_rss_mb", !peak);
        ];
      counters = Common.exact (Option.get !first);
      notes =
        notes
        @ [
            Printf.sprintf "set-up: median of %d CLI cold starts, %d before each answer"
              (List.length !starts) cli_starts_per_answer;
            Printf.sprintf "%d answers in %.3f s; latency over %d samples (p99 is their maximum)"
              !attempted wall (List.length latencies);
            "per answer: " ^ Common.per_answer (List.rev !timed);
          ];
      rows = [];
      spans = [];
    }
  end
  else begin
    let t0 = Span.now () in
    let plain = pass (fun spec -> Harness.run spec p) in
    let plain_s = Common.elapsed_s t0 in
    Span.enabled := true;
    let t1 = Span.now () in
    let traced = Span.with_ "pass" (fun () -> pass (fun spec -> Steps.harness_run spec p)) in
    let traced_s = Common.elapsed_s t1 in
    Span.enabled := false;
    List.iter2
      (fun (spec, a) (_, b) ->
        answer a;
        answer b;
        if not (same_report a b) then
          problems := (spec.Harness.name ^ ": traced report differs from Harness.run's") :: !problems)
      plain traced;
    let spans = !Span.recorded in
    let sizes = sum (List.map (fun (_, r) -> sizes_of r) traced) in
    {
      Common.attempted = !attempted;
      problems = List.rev !problems;
      metrics =
        Steps.layer_metrics spans @ sizes
        @ [ ("obs.overhead_frac", (traced_s /. plain_s) -. 1.0) ];
      counters = Common.exact sizes @ Steps.traced_counters spans;
      notes = notes @ [ Printf.sprintf "untraced pass %.3f s, traced pass %.3f s" plain_s traced_s ];
      rows = Span.report spans;
      spans;
    }
  end

(* Every experiment's answer, as pins for Oracle.oneshot_small. *)
let pin () =
  let p = params () in
  List.iter
    (fun spec ->
      print_endline (Oracle.to_literal spec.Harness.name (Oracle.of_report (Harness.run spec p))))
    Experiments.all
