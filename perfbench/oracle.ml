(* The answer oracle: the values every RCA answer must reproduce, pinned as
   measured when the benchmark was defined.  A run counts an answer that
   differs from its pin as failed. *)

module Core = Rca_core
module MG = Rca_metagraph.Metagraph

type answer = {
  slice : int;  (* slice node count *)
  iterations : int;
  outcome : string;
  final : int;  (* final candidate node count *)
  final_digest : string;  (* of the final node ids, in order *)
  sampled : int;  (* instrumented sites, summed over iterations *)
  located : string list;  (* bug nodes the answer locates *)
  context : string;  (* workload-specific exact values *)
}

let digest_ids ids =
  String.sub (Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int ids)))) 0 16

let of_pipeline ~located ~context (p : Core.Pipeline.t) =
  let r = p.Core.Pipeline.result in
  {
    slice = Core.Slice.size p.Core.Pipeline.slice;
    iterations = List.length r.Core.Refine.iterations;
    outcome = Core.Refine.outcome_string r.Core.Refine.outcome;
    final = List.length r.Core.Refine.final_nodes;
    final_digest = digest_ids r.Core.Refine.final_nodes;
    sampled =
      List.fold_left (fun acc it -> acc + List.length it.Core.Refine.sampled) 0 r.Core.Refine.iterations;
    located;
    context;
  }

(* A Harness report: located bugs are the bug nodes in the final set or
   sampled on the way (Harness.run's success criterion); the context pins
   the ECT verdict, the affected outputs and the runtime-sampling
   agreement bit for bit. *)
let of_report (r : Rca_experiments.Harness.report) =
  let open Rca_experiments in
  let mg = r.Harness.fixture.Fixture.mg in
  let res = r.Harness.pipeline.Core.Pipeline.result in
  let hit = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace hit v ()) res.Core.Refine.final_nodes;
  List.iter
    (fun it -> List.iter (fun v -> Hashtbl.replace hit v ()) it.Core.Refine.sampled)
    res.Core.Refine.iterations;
  let bug_nodes = Fixture.bug_nodes r.Harness.fixture ~canonicals:r.Harness.spec.Harness.bug_canonicals in
  let located =
    List.filter (fun b -> Hashtbl.mem hit b) bug_nodes |> Core.Pipeline.describe_nodes mg
  in
  let context =
    Printf.sprintf "ect=%s affected=%s agreement=%s"
      (Rca_ect.Ect.verdict_string r.Harness.ect_verdict)
      (String.concat "," r.Harness.affected_outputs)
      (match r.Harness.sampling_agreement with None -> "none" | Some a -> Printf.sprintf "%h" a)
  in
  of_pipeline ~located ~context r.Harness.pipeline

let to_string a =
  Printf.sprintf
    "slice=%d iterations=%d outcome=%s final=%d digest=%s sampled=%d located=[%s] %s" a.slice
    a.iterations a.outcome a.final a.final_digest a.sampled (String.concat "," a.located) a.context

(* The OCaml literal of a pin, as [--pin] prints it. *)
let to_literal key a =
  Printf.sprintf
    "    ( %S,\n      { slice = %d; iterations = %d; outcome = %S; final = %d; final_digest = %S;\n        sampled = %d; located = [ %s ]; context = %S } );"
    key a.slice a.iterations a.outcome a.final a.final_digest a.sampled
    (String.concat "; " (List.map (Printf.sprintf "%S") a.located))
    a.context

let check pins key got =
  match List.assoc_opt key pins with
  | None -> Error (Printf.sprintf "%s: no pinned answer" key)
  | Some want when want = got -> Ok ()
  | Some want ->
      Error
        (Printf.sprintf "%s: answer differs from its pin\n  want %s\n  got  %s" key
           (to_string want) (to_string got))

(* --- pins ------------------------------------------------------------------- *)

(* Harness.run at small scale with the CLI defaults, per experiment. *)
let oneshot_small : (string * answer) list =
  [
    ( "WSUBBUG",
      { slice = 15; iterations = 0; outcome = "converged"; final = 15; final_digest = "fb6c4eb1d4650033";
        sampled = 0; located = [ "wsub__microp_aero" ]; context = "ect=Fail affected=wsub agreement=none" } );
    ( "RAND-MT",
      { slice = 563; iterations = 1; outcome = "fixed-point"; final = 563; final_digest = "38a6265cdd7d0c60";
        sampled = 20; located = [ "subcol_lw__rad_lw_mod"; "subcol_sw__rad_sw_mod" ]; context = "ect=Fail affected=sols,fsds,flns,flds agreement=0x1p+0" } );
    ( "GOFFGRATCH",
      { slice = 565; iterations = 2; outcome = "fixed-point"; final = 526; final_digest = "96b545df650c3423";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "ect=Fail affected=t,taux,trefht,tmq,cldtot,flns,qrs,soilw,snowhlnd,q agreement=0x1p+0" } );
    ( "AVX2",
      { slice = 538; iterations = 2; outcome = "fixed-point"; final = 524; final_digest = "10d7626ba8c9f457";
        sampled = 40; located = [ "qniic__micro_mg"; "qvlat__micro_mg"; "tlat__micro_mg" ]; context = "ect=Fail affected=omega,ps,omegat,tmq,qrl agreement=0x1p-1" } );
    ( "RANDOMBUG",
      { slice = 542; iterations = 1; outcome = "converged"; final = 18; final_digest = "0fe23c0e832f4778";
        sampled = 20; located = [ "omega__state_mod" ]; context = "ect=Fail affected=omegat,omega,uu,cldhgh,u10 agreement=0x1p+0" } );
    ( "DYN3BUG",
      { slice = 557; iterations = 2; outcome = "fixed-point"; final = 546; final_digest = "42c0f0340f8c80eb";
        sampled = 40; located = [ "pmid__state_mod" ]; context = "ect=Fail affected=shflx,t,cldtot,tmq,sols agreement=0x1.ccccccccccccdp-1" } );
  ]

(* Pipeline.run on the paper-scale GOFFGRATCH fixture, per target set
   (labels joined by ','). *)
let pipeline_paper : (string * answer) list =
  [
    ( "cloud,cldtot,aqsnow,freqs,ccn3",
      { slice = 2378; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "cloud",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "ps",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "q",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "qrl",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "qrs",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "t",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "uu",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "vv",
      { slice = 2364; iterations = 1; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 20; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "aqsnow",
      { slice = 2366; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "cldhgh",
      { slice = 2366; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "cldlow",
      { slice = 2366; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "cldmed",
      { slice = 2366; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "omega",
      { slice = 2376; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "shflx",
      { slice = 2372; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
    ( "trefht",
      { slice = 2366; iterations = 2; outcome = "fixed-point"; final = 2364; final_digest = "211f7b2b75e5b50b";
        sampled = 40; located = [ "log10es__goffgratch_svp" ]; context = "" } );
  ]
