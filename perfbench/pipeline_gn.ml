(* pipeline-gn-paper: static RCA queries at paper scale.  Set-up builds the
   GOFFGRATCH fixture and freezes its metagraph once, as a query server
   would; the timed phase runs Pipeline.run (masked engine, exact G-N with
   gn_approx 128, stop_size 30, CAM-module restriction, reachability
   detector) on three target sets.  No interpreter runs here and G-N is
   nearly all of the refine time, so this is where graph-kernel work shows
   and interpreter or serve work must not. *)

open Rca_experiments
module MG = Rca_metagraph.Metagraph
module Core = Rca_core

let fixed_set = [ "cloud"; "cldtot"; "aqsnow"; "freqs"; "ccn3" ]

(* Single catalogue labels with a non-empty slice, grouped by the cost of
   their query at this commit: one refinement iteration (42 G-N recomputes
   over 5,248 rescored sources, about 1.5 s on an unloaded host) and two
   iterations (104-112 recomputes over 13,056-14,080 sources, about 4 s).
   The seed draws one label from each group, so every seed runs about the
   same amount of G-N work. *)
let one_iteration = [ "cloud"; "ps"; "q"; "qrl"; "qrs"; "t"; "uu"; "vv" ]
let two_iterations = [ "aqsnow"; "cldhgh"; "cldlow"; "cldmed"; "omega"; "shflx"; "trefht" ]

let draw seed =
  let rng = Random.State.make [| seed |] in
  let pick pool = [ List.nth pool (Random.State.int rng (List.length pool)) ] in
  let a = pick one_iteration in
  let b = pick two_iterations in
  [ fixed_set; a; b ]

type model = { mg : MG.t; frozen : Core.Frozen.t; bug_nodes : int list; detect : Core.Detector.t }

let spec = Experiments.goffgratch

let build ~traced =
  let config = Rca_synth.Config.paper in
  let fixture =
    if traced then Steps.fixture ~inject:spec.Harness.inject config
    else Fixture.make ~inject:spec.Harness.inject config
  in
  let mg = fixture.Fixture.mg in
  let frozen = Span.with_ "core.freeze" (fun () -> Core.Frozen.freeze mg.MG.graph) in
  let bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals in
  { mg; frozen; bug_nodes; detect = Core.Detector.reachability mg ~bug_nodes }

(* One set-up in a fresh process: build and freeze, print the seconds. *)
let setup_child () =
  let t0 = Span.now () in
  ignore (build ~traced:false);
  Printf.printf "%.17g\n" (Common.elapsed_s t0)

let setup_in_child () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--setup-child"; "pipeline-gn-paper" |] in
  let lines = Common.input_lines ic in
  match (Unix.close_process_in ic, lines) with
  | Unix.WEXITED 0, [ line ] when float_of_string_opt line <> None -> float_of_string line
  | _ -> failwith "set-up process failed"

let query m targets =
  Core.Pipeline.run ~keep_module:Rca_synth.Outputs.is_cam_module ~min_cluster:4 ~gn_approx:128
    ~stop_size:30 ~partitioner:Core.Refine.Girvan_newman ~frozen:m.frozen m.mg ~outputs:targets
    ~detect:m.detect

let answer m p =
  Oracle.of_pipeline
    ~located:(Core.Pipeline.located_bugs m.mg p ~bug_nodes:m.bug_nodes |> Core.Pipeline.describe_nodes m.mg)
    ~context:"" p

let key targets = String.concat "," targets

let same (a : Core.Pipeline.t) (b : Core.Pipeline.t) =
  a.Core.Pipeline.slice.Core.Slice.nodes = b.Core.Pipeline.slice.Core.Slice.nodes
  && a.Core.Pipeline.slice.Core.Slice.targets = b.Core.Pipeline.slice.Core.Slice.targets
  && a.Core.Pipeline.result = b.Core.Pipeline.result

let run ~seed ~seconds ~trace : Common.outcome =
  let sets = draw seed in
  let problems = ref [] and attempted = ref 0 in
  let check m targets p =
    incr attempted;
    let a = answer m p in
    (match Oracle.check Oracle.pipeline_paper (key targets) a with
    | Ok () -> ()
    | Error msg -> problems := msg :: !problems);
    a
  in
  let notes = [ "target sets: " ^ String.concat " | " (List.map key sets) ] in
  let counters_of m answers = Common.exact (Steps.graph_sizes [ m.mg ] @ Steps.result_sizes answers) in
  if not trace then begin
    (* The set-up is timed here once, for the model the queries use, and
       again in a fresh process before every query: the host's speed drifts
       over seconds, so the samples are spread over processes and over the
       run.  The children's time is left out of the timed phase. *)
    let t_build = Span.now () in
    let m = build ~traced:false in
    let builds = ref [ Common.elapsed_s t_build ] and setup_spent = ref 0.0 in
    let t0 = Span.now () in
    let timed_s () = Common.elapsed_s t0 -. !setup_spent in
    let timed = ref [] and first = ref [] in
    while !timed = [] || timed_s () < seconds do
      let answers =
        List.map
          (fun targets ->
            let s0 = Span.now () in
            builds := setup_in_child () :: !builds;
            setup_spent := !setup_spent +. Common.elapsed_s s0;
            let t = Span.now () in
            let p = query m targets in
            timed := (key targets, Common.elapsed_s t *. 1e3) :: !timed;
            check m targets p)
          sets
      in
      if !first = [] then first := answers
    done;
    let wall = timed_s () in
    let builds = List.rev !builds in
    let latencies = List.map snd !timed in
    {
      Common.attempted = !attempted;
      problems = List.rev !problems;
      metrics =
        [
          ("setup_s", Common.median builds);
          ("answers_per_s", float_of_int !attempted /. wall);
          ("latency_p50_ms", Common.median latencies);
          ("latency_p99_ms", Common.quantile 0.99 latencies);
          ("peak_rss_mb", Common.peak_rss_mb "self");
        ];
      counters = counters_of m !first;
      notes =
        notes
        @ [
            Printf.sprintf "set-up %s s (median of %d fixture builds, the first in this process)"
              (String.concat ", " (List.map (Printf.sprintf "%.3f") builds))
              (List.length builds);
            Printf.sprintf "%d answers in %.3f s; latency over %d samples (p99 is their maximum)"
              !attempted wall (List.length latencies);
            "per answer: " ^ Common.per_answer (List.rev !timed);
          ];
      rows = [];
      spans = [];
    }
  end
  else begin
    Span.enabled := true;
    let m = Span.with_ "setup" (fun () -> build ~traced:true) in
    Span.enabled := false;
    let t0 = Span.now () in
    let plain = List.map (query m) sets in
    let plain_s = Common.elapsed_s t0 in
    Span.enabled := true;
    let t1 = Span.now () in
    let traced =
      Span.with_ "pass" (fun () -> List.map (fun t -> Steps.pipeline (fun () -> query m t)) sets)
    in
    let traced_s = Common.elapsed_s t1 in
    Span.enabled := false;
    let answers =
      List.map2
        (fun targets (a, b) ->
          ignore (check m targets a);
          if not (same a b) then
            problems := (key targets ^ ": traced result differs from the untraced one") :: !problems;
          check m targets b)
        sets (List.combine plain traced)
    in
    let spans = !Span.recorded in
    let layers = Steps.layer_metrics spans in
    {
      Common.attempted = !attempted;
      problems = List.rev !problems;
      metrics =
        layers @ Steps.graph_sizes [ m.mg ] @ Steps.result_sizes answers
        @ [ ("obs.overhead_frac", (traced_s /. plain_s) -. 1.0) ];
      counters = counters_of m answers @ Steps.traced_counters spans;
      notes = notes @ [ Printf.sprintf "untraced pass %.3f s, traced pass %.3f s" plain_s traced_s ];
      rows = Span.report spans;
      spans;
    }
  end

(* Every target set a seed can draw, as pins for Oracle.pipeline_paper. *)
let pin () =
  let m = build ~traced:false in
  List.iter
    (fun targets ->
      let t0 = Span.now () in
      let p = query m targets in
      Printf.eprintf "%s: %.3f s\n%!" (key targets) (Common.elapsed_s t0);
      print_endline (Oracle.to_literal (key targets) (answer m p)))
    ((fixed_set :: List.map (fun l -> [ l ]) one_iteration) @ List.map (fun l -> [ l ]) two_iterations)
