(** Ensemble consistency test — the UF-CAM-ECT substitute (Baker et al.
    2015; Milroy et al. 2018): PCA on standardized per-variable global
    means at an early time step, with pyCECT's decision rule at fixed
    constants: [max_pcs] = 10 leading PCs, score bounds of [sigma_factor]
    = 3.29 stds, [pc_fail_threshold] = 2 failing PCs per run,
    [run_fail_threshold] = 2 failing runs and [runs_per_test] = 3. *)

open Rca_stats

type t
(** A fitted test: variable standardization, PCA loadings and per-PC
    ensemble score bounds. *)

val fit : var_names:string array -> Matrix.t -> t
(** [fit ~var_names ensemble] with [ensemble] as runs x variables.
    Raises [Invalid_argument] for fewer than 5 members. *)

type verdict = Pass | Fail

type run_result = { failing_pcs : int list; run_failed : bool }

type result = {
  verdict : verdict;
  runs : run_result list;
  n_pc_used : int;
}

val failing_pcs : t -> float array -> int list
(** PCs of one test run outside the ensemble score bounds. *)

val evaluate : t -> Matrix.t -> result
(** Evaluate a set of test runs (pyCECT uses 3). *)

val verdict_string : verdict -> string

val variable_scores : t -> float array -> (string * float) list
(** Per-variable standardized deviations |z| of one test run, descending —
    the failure-attribution measure of Milroy et al. 2016 that identified
    the most affected output variables on Mira. *)

val failure_rate : t -> pool:Matrix.t -> ?trials:int -> unit -> float
(** Fraction of Fail verdicts over repeated 3-run tests drawn
    deterministically from a pool of experimental runs (Table 1's
    measurement). *)
