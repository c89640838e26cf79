(* Variable selection (paper Section 3): identify the output variables most
   affected by a discrepancy, connecting the statistical failure back to
   the code.

   Method 1 — median distance: standardize each variable by its ensemble
   mean/std, keep variables whose ensemble and experimental IQRs do not
   overlap, rank by distance between standardized medians.

   Method 2 — lasso: L1 logistic regression classifying ensemble vs
   experimental runs, tuned to keep about five variables. *)

type ranked_variable = { name : string; score : float }

(* [ensemble] and [experimental]: runs x vars matrices over the same
   [names]. *)
let median_distance ~names ~(ensemble : Matrix.t) ~(experimental : Matrix.t) :
    ranked_variable list =
  let p = Array.length names in
  if Matrix.cols ensemble <> p || Matrix.cols experimental <> p then
    invalid_arg "Select.median_distance: column mismatch";
  let col (m : Matrix.t) j = Array.init (Matrix.rows m) (fun i -> m.(i).(j)) in
  let out = ref [] in
  for j = 0 to p - 1 do
    let ens = col ensemble j and exp_ = col experimental j in
    let mu = Descriptive.mean ens in
    (* A variable with no ensemble variability that nevertheless moves in
       the experiment is maximally distinct: fall back to a machine-noise
       scale so its distance dwarfs ordinarily-varying variables (the
       paper's WSUBBUG ranks wsub 1000x above the runner-up). *)
    let sd =
      let s = Descriptive.std ens in
      if s > 1e-300 then s else Float.max (1e-14 *. abs_float mu) 1e-30
    in
    let zens = Descriptive.standardize_array ~mean:mu ~std:sd ens in
    let zexp = Descriptive.standardize_array ~mean:mu ~std:sd exp_ in
    if not (Descriptive.iqr_overlap zens zexp) then begin
      let d = abs_float (Descriptive.median zexp -. Descriptive.median zens) in
      out := { name = names.(j); score = d } :: !out
    end
  done;
  List.sort (fun a b -> compare b.score a.score) !out

(* Lasso selection; scores are |coefficients| of the surviving variables,
   descending. *)
let lasso ?(target = 5) ~names ~(ensemble : Matrix.t) ~(experimental : Matrix.t) () :
    ranked_variable list =
  let p = Array.length names in
  if Matrix.cols ensemble <> p || Matrix.cols experimental <> p then
    invalid_arg "Select.lasso: column mismatch";
  let n_ens = Matrix.rows ensemble and n_exp = Matrix.rows experimental in
  let x =
    Matrix.init ~rows:(n_ens + n_exp) ~cols:p (fun i j ->
        if i < n_ens then ensemble.(i).(j) else experimental.(i - n_ens).(j))
  in
  let y = Array.init (n_ens + n_exp) (fun i -> if i < n_ens then 0.0 else 1.0) in
  let model = Logistic.fit_select ~target x y in
  Logistic.nonzero_features model
  |> List.map (fun j -> { name = names.(j); score = abs_float model.Logistic.weights.(j) })
  |> List.sort (fun a b -> compare b.score a.score)

(* Direct value comparison — the paper's recommended first attempt: keep
   variables whose values differ between a single ensemble member and a
   single experimental run by more than 1e-14 relative difference. *)
let direct_comparison ~names ~(member : float array) ~(experiment : float array) :
    ranked_variable list =
  let p = Array.length names in
  if Array.length member <> p || Array.length experiment <> p then
    invalid_arg "Select.direct_comparison: length mismatch";
  let out = ref [] in
  for j = 0 to p - 1 do
    let scale = Float.max (abs_float member.(j)) 1e-300 in
    let rel = abs_float (experiment.(j) -. member.(j)) /. scale in
    if rel > 1e-14 then out := { name = names.(j); score = rel } :: !out
  done;
  List.sort (fun a b -> compare b.score a.score) !out

let names_of ranked = List.map (fun r -> r.name) ranked

let take k ranked = List.filteri (fun i _ -> i < k) ranked
