(* Tests for rca_obs (span recording, counters, disabled no-op contract,
   emitters parsed back through Jsonio) and the determinism contract the
   pipeline's instrumentation depends on: enabled vs disabled runs of the
   full pipeline on the two-cluster fixture yield identical results, with
   one refine.iteration span per recorded iteration. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph
module Obs = Rca_obs.Obs
module J = Rca_obs.Jsonio
open Rca_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Obs primitives ------------------------------------------------------------ *)

let disabled_records_nothing () =
  Obs.reset ();
  check_bool "disabled" false (Obs.enabled ());
  check_int "span returns result" 7 (Obs.span "s" (fun () -> 7));
  Obs.incr "c";
  check_int "no spans" 0 (List.length (Obs.spans ()));
  check_int "no counters" 0 (List.length (Obs.counters ()))

let spans_recorded_in_order () =
  Obs.enable ();
  ignore (Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> 1)));
  ignore (Obs.span ~args:[ ("k", Obs.Int 3) ] "tail" (fun () -> 2));
  Obs.disable ();
  (* spans close innermost-first; [spans] returns completion order *)
  Alcotest.(check (list string)) "names" [ "inner"; "outer"; "tail" ]
    (List.map (fun s -> s.Obs.span_name) (Obs.spans ()));
  check_int "span_count" 1 (Obs.span_count "outer");
  check_bool "durations nonneg" true
    (List.for_all (fun s -> s.Obs.dur_us >= 0.0) (Obs.spans ()))

let span_exception_recorded_and_reraised () =
  Obs.enable ();
  (try ignore (Obs.span "boom" (fun () -> failwith "x")) with Failure _ -> ());
  Obs.disable ();
  match Obs.spans () with
  | [ s ] ->
      Alcotest.(check string) "name" "boom" s.Obs.span_name;
      check_bool "raised arg" true (List.mem_assoc "raised" s.Obs.span_args)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let counters_add_up () =
  Obs.enable ();
  Obs.incr "a";
  Obs.incr ~by:4 "a";
  Obs.incr "b";
  Obs.disable ();
  check_int "a" 5 (Obs.counter_value "a");
  check_int "b" 1 (Obs.counter_value "b");
  check_int "absent" 0 (Obs.counter_value "zzz")

let span'_args_from_result () =
  Obs.enable ();
  let r = Obs.span' "s" (fun r -> [ ("result", Obs.Int r) ]) (fun () -> 42) in
  Obs.disable ();
  check_int "result" 42 r;
  match Obs.spans () with
  | [ s ] -> check_bool "arg carries result" true (List.mem ("result", Obs.Int 42) s.Obs.span_args)
  | _ -> Alcotest.fail "expected one span"

let enable_resets () =
  Obs.enable ();
  Obs.incr "stale";
  ignore (Obs.span "stale" (fun () -> ()));
  Obs.enable ();
  Obs.disable ();
  check_int "counters cleared" 0 (Obs.counter_value "stale");
  check_int "spans cleared" 0 (Obs.span_count "stale")

(* Both emitters print through Jsonio and parse back: the escaped span
   arg survives the round trip and a non-finite span arg becomes null. *)
let emitters_well_formed () =
  Obs.enable ();
  ignore
    (Obs.span
       ~args:[ ("quote", Obs.Str "a\"b\\c\nd"); ("nan", Obs.Float Float.nan) ]
       "esc" (fun () -> ()));
  Obs.incr "events";
  Obs.disable ();
  let parse v =
    match J.of_string (J.to_string v) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "emitter output does not parse: %s" msg
  in
  let path keys v = List.fold_left (fun v k -> Option.bind v (J.member k)) (Some v) keys in
  let trace = parse (Obs.chrome_trace_json ()) in
  let esc =
    Option.bind (path [ "traceEvents" ] trace) J.list_opt
    |> Option.value ~default:[]
    |> List.find_opt (fun ev -> J.member "name" ev = Some (J.Str "esc"))
  in
  check_bool "esc span quote arg survives" true
    (Option.bind esc (path [ "args"; "quote" ]) = Some (J.Str "a\"b\\c\nd"));
  check_bool "nan span arg is null" true (Option.bind esc (path [ "args"; "nan" ]) = Some J.Null);
  check_bool "esc span complete event" true
    (Option.bind esc (J.member "ph") = Some (J.Str "X"));
  let summary = parse (Obs.summary_json ()) in
  check_bool "span aggregated" true (path [ "spans"; "esc"; "count" ] summary = Some (J.num 1))

(* --- monotonic clock ------------------------------------------------------------ *)

let monotonic_never_decreases () =
  let prev = ref (Obs.monotonic_ns ()) in
  for _ = 1 to 10_000 do
    let now = Obs.monotonic_ns () in
    if Int64.compare now !prev < 0 then
      Alcotest.failf "monotonic clock went backwards: %Ld -> %Ld" !prev now;
    prev := now
  done

(* The regression the clock switch fixes: span durations and start
   offsets must be non-negative no matter how many spans are recorded —
   with gettimeofday a stepped wall clock could produce negative
   durations. *)
let spans_nonnegative_under_load () =
  Obs.enable ();
  for i = 1 to 1_000 do
    ignore (Obs.span "tick" (fun () -> i * i))
  done;
  Obs.disable ();
  check_int "all recorded" 1_000 (Obs.span_count "tick");
  List.iter
    (fun s ->
      if s.Obs.dur_us < 0.0 then Alcotest.failf "negative duration %f" s.Obs.dur_us;
      if s.Obs.ts_us < 0.0 then Alcotest.failf "negative start %f" s.Obs.ts_us)
    (Obs.spans ());
  Obs.reset ()

let wall_anchor_recorded () =
  Obs.enable ();
  ignore (Obs.span "s" (fun () -> ()));
  Obs.disable ();
  check_bool "wall epoch captured" true (Obs.wall_epoch_us () > 0.0);
  check_bool "trace carries wall anchor" true
    (J.member "wallClockStartUs" (Obs.chrome_trace_json ()) <> None);
  Obs.reset ()

(* --- pipeline determinism under instrumentation --------------------------------- *)

let build src = MG.build (Rca_fortran.Parser.parse_file ~strict:false ~file:"t.F90" src)

let two_cluster_src =
  {|
module state_m
  real(r8) :: t, u
end module state_m

module phys_m
  use state_m
  real(r8) :: p1, p2, p3, p4, heating
contains
  subroutine phys_run()
    p1 = t * 2.0
    p2 = p1 + t
    p3 = p1 * p2
    p4 = p3 + p2 + p1
    heating = p4 * 0.5
    t = t + heating
    call outfld('heat', heating)
  end subroutine phys_run
end module phys_m

module dyn_m
  use state_m
  real(r8) :: d1, d2, d3, momentum
contains
  subroutine dyn_run()
    d1 = u * 0.9
    d2 = d1 + u
    d3 = d2 * d1
    momentum = d3 + d2
    u = u + momentum * 0.01
    t = t + u * 0.001
    call outfld('mom', momentum)
  end subroutine dyn_run
end module dyn_m
|}

let mg2 = lazy (build two_cluster_src)

let find mg ~module_ ~canonical =
  match
    List.filter
      (fun id -> (MG.node mg id).MG.module_ = module_)
      (MG.nodes_with_canonical mg canonical)
  with
  | [ id ] -> id
  | _ -> Alcotest.failf "node %s.%s not found/ambiguous" module_ canonical

let run_pipeline mg bug =
  let detect = Detector.reachability mg ~bug_nodes:[ bug ] in
  Pipeline.run ~min_cluster:1 ~stop_size:3 mg ~outputs:[ "mom" ] ~detect

let strip t =
  (* everything result-shaped: slice, per-iteration records, outcome *)
  ( t.Pipeline.slice.Slice.nodes,
    t.Pipeline.slice.Slice.targets,
    List.map
      (fun it ->
        Refine.(it.nodes, it.communities, it.sampled_by_community, it.sampled, it.detected))
      t.Pipeline.result.Refine.iterations,
    t.Pipeline.result.Refine.final_nodes,
    t.Pipeline.result.Refine.outcome )

let instrumented_run_identical () =
  let mg = Lazy.force mg2 in
  let bug = find mg ~module_:"dyn_m" ~canonical:"d1" in
  Obs.reset ();
  let plain = run_pipeline mg bug in
  Obs.enable ();
  let traced = run_pipeline mg bug in
  Obs.disable ();
  check_bool "results identical" true (strip plain = strip traced);
  check_bool "located identical" true
    (Pipeline.located_bugs mg plain ~bug_nodes:[ bug ]
    = Pipeline.located_bugs mg traced ~bug_nodes:[ bug ]);
  (* exactly one refine.iteration span per recorded iteration, nested
     kernel spans present *)
  check_int "iteration spans" (List.length traced.Pipeline.result.Refine.iterations)
    (Obs.span_count "refine.iteration");
  check_int "one pipeline.run span" 1 (Obs.span_count "pipeline.run");
  check_int "one refine.run span" 1 (Obs.span_count "refine.run");
  check_bool "gn spans recorded" true (Obs.span_count "gn.step" > 0);
  check_bool "centrality spans recorded" true (Obs.span_count "centrality.eigenvector" > 0);
  Obs.reset ()

let located_bugs_matches_list_oracle () =
  let mg = Lazy.force mg2 in
  let bug = find mg ~module_:"dyn_m" ~canonical:"d1" in
  let t = run_pipeline mg bug in
  (* the pre-hash-set semantics, verbatim: membership in final nodes or
     any iteration's detected list, checked with List.mem *)
  let oracle bug_nodes =
    let detected =
      List.concat_map (fun it -> it.Refine.detected) t.Pipeline.result.Refine.iterations
    in
    List.filter
      (fun b -> List.mem b t.Pipeline.result.Refine.final_nodes || List.mem b detected)
      bug_nodes
  in
  let all_nodes = List.init (MG.n_nodes mg) Fun.id in
  check_bool "hash-set rewrite = list oracle" true
    (Pipeline.located_bugs mg t ~bug_nodes:all_nodes = oracle all_nodes);
  check_bool "single bug" true (Pipeline.located_bugs mg t ~bug_nodes:[ bug ] = oracle [ bug ])

let pool_counters_recorded () =
  let g = G.Gen.gnm ~seed:3 ~n:120 ~m:400 in
  Obs.enable ();
  (* any pool size >= 2 is bitwise-identical to any other (fixed chunk
     structure + deterministic tree reduction), on the oracle's hashtable
     Brandes as on the CSR kernel *)
  let brandes pool = Rca_oracle.Brandes.compute ~pool g in
  let p2 = G.Pool.with_pool 2 brandes in
  let p3 = G.Pool.with_pool 3 brandes in
  Obs.disable ();
  check_bool "pool:2 = pool:3" true
    (p2.Rca_oracle.Brandes.node_bc = p3.Rca_oracle.Brandes.node_bc);
  check_bool "batches counted" true (Obs.counter_value "pool.batches" > 0);
  check_bool "chunks counted" true (Obs.counter_value "pool.chunks" > 0);
  (* per-domain chunk use rides on counters named pool.chunks.d<id>;
     they must sum to the total *)
  let per_domain =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > 13 && String.sub name 0 13 = "pool.chunks.d" then acc + v
        else acc)
      0 (Obs.counters ())
  in
  check_int "per-domain chunks sum to total" (Obs.counter_value "pool.chunks") per_domain;
  Obs.reset ()

(* The [sweeps] argument of the centrality.eigenvector span pins where
   the shifted power iteration x <- x + M x stops.  On a DAG, I + M has
   the single eigenvalue 1, so the iteration only drifts toward
   M^d x0 and runs to the 200-sweep cap; on a directed cycle the
   uniform start vector is already the fixed point. *)
let eigenvector_sweeps () =
  let sweeps edges ~n =
    Obs.enable ();
    ignore (G.Centrality.eigenvector ~direction:G.Centrality.In (G.Digraph.of_edges ~n edges));
    Obs.disable ();
    match Obs.spans () with
    | [ s ] when s.Obs.span_name = "centrality.eigenvector" -> (
        match List.assoc_opt "sweeps" s.Obs.span_args with
        | Some (Obs.Int k) -> k
        | _ -> Alcotest.fail "no sweeps argument")
    | _ -> Alcotest.fail "expected one centrality.eigenvector span"
  in
  check_int "path 0->1->2->3 runs to the cap" 200
    (sweeps ~n:4 [ (0, 1); (1, 2); (2, 3) ]);
  check_int "diamond runs to the cap" 200
    (sweeps ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]);
  check_int "3-cycle stops after 2 sweeps" 2 (sweeps ~n:3 [ (0, 1); (1, 2); (2, 0) ]);
  Obs.reset ()

(* --- interpreter ------------------------------------------------------------------ *)

(* Tracing observes the interpreter without steering it: tiny-scale
   Model.run outputs are bitwise equal with recording on and off, and each
   run records exactly one interp.run span carrying its statement count. *)
let interp_run_spans () =
  let config = Rca_synth.Config.tiny in
  let sources = Rca_synth.Model.generate config in
  let program =
    Rca_synth.Model.build_filter
      (Rca_synth.Model.parse_program ~strict:false sources)
      ~driver:"cam_driver"
  in
  let runs () =
    List.map
      (fun member ->
        Array.map Int64.bits_of_float
          (Rca_synth.Model.run program (Rca_synth.Model.default_opts ~member config)))
      [ 0; 1; 2 ]
  in
  Obs.reset ();
  let off = runs () in
  Obs.enable ();
  let on = runs () in
  Obs.disable ();
  check_bool "outputs bitwise equal" true (off = on);
  let spans = List.filter (fun s -> s.Obs.span_name = "interp.run") (Obs.spans ()) in
  check_int "one span per run" 3 (List.length spans);
  List.iter
    (fun s ->
      match List.assoc_opt "statements" s.Obs.span_args with
      | Some (Obs.Int k) -> check_bool "statements counted" true (k > 1_000)
      | _ -> Alcotest.fail "interp.run span without a statement count")
    spans;
  Obs.reset ()

let () =
  Alcotest.run "rca_obs"
    [
      ( "obs",
        [
          Alcotest.test_case "disabled no-op" `Quick disabled_records_nothing;
          Alcotest.test_case "span order" `Quick spans_recorded_in_order;
          Alcotest.test_case "span exception" `Quick span_exception_recorded_and_reraised;
          Alcotest.test_case "counters" `Quick counters_add_up;
          Alcotest.test_case "span' args" `Quick span'_args_from_result;
          Alcotest.test_case "enable resets" `Quick enable_resets;
          Alcotest.test_case "emitters well-formed" `Quick emitters_well_formed;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic never decreases" `Quick monotonic_never_decreases;
          Alcotest.test_case "spans nonnegative" `Quick spans_nonnegative_under_load;
          Alcotest.test_case "wall anchor" `Quick wall_anchor_recorded;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "instrumented identical" `Quick instrumented_run_identical;
          Alcotest.test_case "located_bugs oracle" `Quick located_bugs_matches_list_oracle;
          Alcotest.test_case "pool counters" `Quick pool_counters_recorded;
        ] );
      ("centrality", [ Alcotest.test_case "eigenvector sweeps" `Quick eigenvector_sweeps ]);
      ("interp", [ Alcotest.test_case "interp.run spans" `Quick interp_run_spans ]);
    ]
