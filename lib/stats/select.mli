(** Variable selection (paper Section 3): identify the output variables
    most affected by a discrepancy. *)

type ranked_variable = { name : string; score : float }

val median_distance :
  names:string array -> ensemble:Matrix.t -> experimental:Matrix.t -> ranked_variable list
(** Method 1: standardize each variable by its ensemble mean/std, keep
    variables whose ensemble and experimental IQRs do not overlap, rank
    by distance between standardized medians (descending).  Variables
    with no ensemble variability are scored against a machine-noise
    scale, reproducing WSUBBUG's ">1000x the runner-up" ranking. *)

val lasso :
  ?target:int ->
  names:string array ->
  ensemble:Matrix.t ->
  experimental:Matrix.t ->
  unit ->
  ranked_variable list
(** Method 2: L1 logistic regression classifying ensemble vs experimental
    runs, tuned toward [target] surviving variables (paper: "about
    five"); scores are |coefficients|, descending. *)

val direct_comparison :
  names:string array -> member:float array -> experiment:float array -> ranked_variable list
(** The paper's recommended first attempt: direct relative comparison of
    one ensemble member against one experimental run; keeps the variables
    whose relative difference exceeds 1e-14. *)

val names_of : ranked_variable list -> string list
val take : int -> ranked_variable list -> ranked_variable list
