(** L1-regularized (lasso) logistic regression by proximal gradient
    descent — the paper's second variable-selection method. *)

type model = {
  weights : float array;  (** per standardized feature *)
  bias : float;
  feature_means : float array;
  feature_stds : float array;
  lambda : float;
}

val soft_threshold : float -> float -> float
(** [soft_threshold x t] shrinks [x] toward zero by [t]. *)

val fit : lambda:float -> Matrix.t -> float array -> model
(** Fit on rows of [x] with labels [y] in {0,1}; features are standardized
    internally and the step size comes from a power-iteration Lipschitz
    estimate.  At most 2000 steps, stopping once the coefficients' L1
    change falls below 1e-8. *)

val predict_proba : model -> float array -> float
val predict : model -> float array -> float

val nonzero_features : model -> int list
(** Indices of surviving (selected) features: weight above 1e-8 in
    magnitude. *)

val lambda_max : Matrix.t -> float array -> float
(** Smallest penalty that zeroes every coefficient. *)

val fit_select : ?target:int -> Matrix.t -> float array -> model
(** Walk a 24-point geometric regularization path and return the model
    whose support size is closest to [target] (paper: "about five
    variables"). *)
