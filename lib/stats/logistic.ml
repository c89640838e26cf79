(* L1-regularized (lasso) logistic regression, fitted by proximal gradient
   descent.  This is the paper's second variable-selection method
   (Section 3): classify ensemble vs experimental runs and keep the
   variables with nonzero coefficients, tuning the regularization strength
   until about five survive. *)

let max_iter = 2000 (* proximal steps per fit *)
let tol = 1e-8 (* coefficient L1 change that ends a fit *)
let threshold = 1e-8 (* |weight| above which a feature is selected *)
let path_steps = 24 (* points on the regularization path *)

type model = {
  weights : float array;  (* per (standardized) feature *)
  bias : float;
  feature_means : float array;
  feature_stds : float array;
  lambda : float;
}

let sigmoid z = if z >= 0.0 then 1.0 /. (1.0 +. exp (-.z)) else exp z /. (1.0 +. exp z)

let soft_threshold x t =
  if x > t then x -. t else if x < -.t then x +. t else 0.0

let standardize_features (x : Matrix.t) =
  let n = Matrix.rows x and p = Matrix.cols x in
  let cols = Array.init p (fun j -> Array.init n (fun i -> x.(i).(j))) in
  let means = Array.map Descriptive.mean cols in
  let stds =
    Array.map (fun c -> let s = Descriptive.std c in if s > 1e-300 then s else 1.0) cols
  in
  let z = Matrix.init ~rows:n ~cols:p (fun i j -> (x.(i).(j) -. means.(j)) /. stds.(j)) in
  (z, means, stds)

(* Lipschitz constant of the logistic gradient: sigma_max(Z)^2 / (4n),
   estimated by a few power iterations on Z^T Z. *)
let lipschitz z =
  let n = Matrix.rows z and p = Matrix.cols z in
  let v = ref (Array.make p (1.0 /. sqrt (float_of_int p))) in
  let lambda = ref 1.0 in
  for _ = 1 to 30 do
    (* u = Z v; w = Z^T u *)
    let u = Matrix.matvec z !v in
    let w = Array.make p 0.0 in
    for i = 0 to n - 1 do
      for j = 0 to p - 1 do
        w.(j) <- w.(j) +. (z.(i).(j) *. u.(i))
      done
    done;
    let norm = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 w) in
    if norm > 0.0 then begin
      lambda := norm;
      v := Array.map (fun x -> x /. norm) w
    end
  done;
  !lambda /. (4.0 *. float_of_int n)

(* Fit with fixed [lambda]; [y] entries are 0 or 1. *)
let fit ~lambda (x : Matrix.t) (y : float array) : model =
  let n = Matrix.rows x and p = Matrix.cols x in
  if Array.length y <> n then invalid_arg "Logistic.fit: label length mismatch";
  let z, means, stds = standardize_features x in
  let lip = Float.max (lipschitz z) 1e-12 in
  let eta = 1.0 /. lip in
  let w = Array.make p 0.0 in
  let b = ref 0.0 in
  let nf = float_of_int n in
  let iter = ref 0 and converged = ref false in
  while (not !converged) && !iter < max_iter do
    incr iter;
    (* gradient of average log-loss *)
    let gw = Array.make p 0.0 and gb = ref 0.0 in
    for i = 0 to n - 1 do
      let dot = ref !b in
      for j = 0 to p - 1 do
        dot := !dot +. (w.(j) *. z.(i).(j))
      done;
      let e = sigmoid !dot -. y.(i) in
      gb := !gb +. e;
      for j = 0 to p - 1 do
        gw.(j) <- gw.(j) +. (e *. z.(i).(j))
      done
    done;
    let delta = ref 0.0 in
    for j = 0 to p - 1 do
      let w' = soft_threshold (w.(j) -. (eta *. gw.(j) /. nf)) (eta *. lambda) in
      delta := !delta +. abs_float (w' -. w.(j));
      w.(j) <- w'
    done;
    let b' = !b -. (eta *. !gb /. nf) in
    delta := !delta +. abs_float (b' -. !b);
    b := b';
    if !delta < tol then converged := true
  done;
  { weights = w; bias = !b; feature_means = means; feature_stds = stds; lambda }

let predict_proba model row =
  let z = ref model.bias in
  Array.iteri
    (fun j x ->
      z := !z +. (model.weights.(j) *. ((x -. model.feature_means.(j)) /. model.feature_stds.(j))))
    row;
  sigmoid !z

let predict model row = if predict_proba model row >= 0.5 then 1.0 else 0.0

let nonzero_features model =
  let acc = ref [] in
  Array.iteri (fun j w -> if abs_float w > threshold then acc := j :: !acc) model.weights;
  List.rev !acc

(* Smallest lambda that zeroes every coefficient: max_j |z_j . (y - mean y)| / n. *)
let lambda_max (x : Matrix.t) (y : float array) =
  let z, _, _ = standardize_features x in
  let n = Matrix.rows z and p = Matrix.cols z in
  let ybar = Descriptive.mean y in
  let best = ref 0.0 in
  for j = 0 to p - 1 do
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (z.(i).(j) *. (y.(i) -. ybar))
    done;
    best := Float.max !best (abs_float !s /. float_of_int n)
  done;
  !best

(* Tune lambda along a geometric regularization path so that about
   [target] features survive; the paper tunes "to select about five
   variables".  Returns the model whose support size is closest to the
   target among those with at least one surviving feature, preferring the
   stronger penalty on ties. *)
let fit_select ?(target = 5) (x : Matrix.t) (y : float array) : model =
  let hi = Float.max (lambda_max x y) 1e-8 in
  let ratio = (1e-4) ** (1.0 /. float_of_int (path_steps - 1)) in
  let best = ref None in
  let lambda = ref hi in
  (try
     for _ = 1 to path_steps do
       let m = fit ~lambda:!lambda x y in
       let k = List.length (nonzero_features m) in
       (if k >= 1 then
          match !best with
          | Some (k', _) when abs (k' - target) <= abs (k - target) -> ()
          | _ -> best := Some (k, m));
       (* the path is monotone enough that overshooting the target by a
          wide margin cannot improve *)
       if k > 3 * target + 5 then raise Exit;
       lambda := !lambda *. ratio
     done
   with Exit -> ());
  match !best with
  | Some (_, m) -> m
  | None -> fit ~lambda:(hi *. 1e-4) x y
