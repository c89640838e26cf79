(* Ensemble consistency test — the UF-CAM-ECT substitute (Baker et al.
   2015; Milroy et al. 2018, "nine time steps").

   Fit: collect one global-mean value per output variable from each
   ensemble member (taken at an early time step), standardize, project
   onto principal components, and record the ensemble distribution of the
   scores of the leading PCs.

   Evaluate: a test run's PC score "fails" when it falls outside
   mean +/- sigma_factor * std of the ensemble scores; a run fails when at
   least [pc_fail_threshold] PCs fail; the overall test fails when at
   least [run_fail_threshold] of the test runs fail.  This is pyCECT's
   decision procedure with constants scaled to our smaller ensembles. *)

open Rca_stats

let max_pcs = 10 (* leading PCs examined; fewer for a small ensemble *)
let sigma_factor = 3.29
let pc_fail_threshold = 2
let run_fail_threshold = 2
let runs_per_test = 3

type t = {
  var_names : string array;
  pca : Pca.t;
  score_means : float array;
  score_stds : float array;
  n_pc : int;  (* leading PCs examined *)
}

(* [ensemble]: runs x vars, in the order of [var_names]. *)
let fit ~var_names (ensemble : Matrix.t) : t =
  let n = Matrix.rows ensemble in
  if n < 5 then invalid_arg "Ect.fit: ensemble too small";
  if Matrix.cols ensemble <> Array.length var_names then
    invalid_arg "Ect.fit: name/column mismatch";
  let n_pc = min max_pcs (min (Array.length var_names) (n - 1)) in
  let pca = Pca.fit ~n_components:n_pc ensemble in
  let scores = Pca.transform pca ensemble in
  let score_col k = Array.init n (fun i -> scores.(i).(k)) in
  let score_means = Array.init n_pc (fun k -> Descriptive.mean (score_col k)) in
  let score_stds =
    Array.init n_pc (fun k ->
        let s = Descriptive.std (score_col k) in
        if s > 1e-300 then s else 1.0)
  in
  { var_names; pca; score_means; score_stds; n_pc }

type verdict = Pass | Fail

type run_result = { failing_pcs : int list; run_failed : bool }

type result = {
  verdict : verdict;
  runs : run_result list;
  n_pc_used : int;
}

(* Which of the leading PCs fall outside the ensemble score bounds for one
   test run. *)
let failing_pcs t row =
  let scores = Pca.scores t.pca row in
  let out = ref [] in
  for k = t.n_pc - 1 downto 0 do
    let half = sigma_factor *. t.score_stds.(k) in
    if abs_float (scores.(k) -. t.score_means.(k)) > half then out := k :: !out
  done;
  !out

(* Evaluate a set of test runs (pyCECT uses 3). *)
let evaluate t (test_runs : Matrix.t) : result =
  let runs =
    Array.to_list test_runs
    |> List.map (fun row ->
           let pcs = failing_pcs t row in
           { failing_pcs = pcs; run_failed = List.length pcs >= pc_fail_threshold })
  in
  let n_failed = List.length (List.filter (fun r -> r.run_failed) runs) in
  {
    verdict = (if n_failed >= run_fail_threshold then Fail else Pass);
    runs;
    n_pc_used = t.n_pc;
  }

let verdict_string = function Pass -> "Pass" | Fail -> "Fail"

(* Per-variable standardized deviations |z| of one test run, descending —
   the manual failure-attribution step of Milroy et al. 2016 ("measuring
   each CAM output variable's contribution to the CAM-ECT failure"). *)
let variable_scores t row =
  if Array.length row <> Array.length t.var_names then
    invalid_arg "Ect.variable_scores: length mismatch";
  let z = Pca.standardize_row t.pca row in
  Array.to_list (Array.mapi (fun j s -> (t.var_names.(j), abs_float s)) z)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Failure rate over repeated tests assembled from an experimental pool:
   each trial draws [runs_per_test] distinct runs from [pool] (cycling
   deterministically) and counts Fail verdicts. *)
let failure_rate t ~(pool : Matrix.t) ?(trials = 30) () =
  let n = Matrix.rows pool in
  if n < runs_per_test then invalid_arg "Ect.failure_rate: pool too small";
  let fails = ref 0 in
  for trial = 0 to trials - 1 do
    let test =
      Array.init runs_per_test (fun k -> pool.(((trial * runs_per_test) + k) mod n))
    in
    if (evaluate t test).verdict = Fail then incr fails
  done;
  float_of_int !fails /. float_of_int trials
