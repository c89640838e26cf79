(* Tests for rca_stats (descriptive, matrix/eigen, PCA, lasso logistic,
   variable selection) and rca_ect (the UF-ECT substitute). *)

open Rca_stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let checkf tol = Alcotest.(check (float tol))

(* --- Descriptive -------------------------------------------------------------- *)

let basic_moments () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Descriptive.mean xs);
  checkf 1e-9 "variance (sample)" (32.0 /. 7.0) (Descriptive.variance xs);
  check_float "median" 4.5 (Descriptive.median xs)

let quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "q0" 1.0 (Descriptive.quantile xs 0.0);
  check_float "q1" 5.0 (Descriptive.quantile xs 1.0);
  check_float "median" 3.0 (Descriptive.quantile xs 0.5);
  check_float "q25" 2.0 (Descriptive.quantile xs 0.25);
  (* interpolation *)
  check_float "q10" 1.4 (Descriptive.quantile xs 0.1)

let quantile_unsorted_input () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of unsorted" 3.0 (Descriptive.median xs)

let iqr_overlap_cases () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let b = [| 3.0; 4.0; 5.0; 6.0; 7.0 |] in
  let c = [| 100.0; 101.0; 102.0; 103.0 |] in
  check_bool "overlapping" true (Descriptive.iqr_overlap a b);
  check_bool "disjoint" false (Descriptive.iqr_overlap a c)

let standardize_degenerate () =
  check_float "zero std centers only" 2.0 (Descriptive.standardize ~mean:3.0 ~std:0.0 5.0);
  check_float "normal" 2.0 (Descriptive.standardize ~mean:1.0 ~std:2.0 5.0)

let empty_rejected () =
  Alcotest.check_raises "mean" (Invalid_argument "Descriptive.mean: empty") (fun () ->
      ignore (Descriptive.mean [||]))

let quantile_nan_rejected () =
  Alcotest.check_raises "nan input" (Invalid_argument "Descriptive.quantile: NaN input")
    (fun () -> ignore (Descriptive.quantile [| 1.0; Float.nan; 3.0 |] 0.5));
  Alcotest.check_raises "all nan" (Invalid_argument "Descriptive.quantile: NaN input")
    (fun () -> ignore (Descriptive.quantile [| Float.nan |] 0.0))

let quantile_single_element () =
  let xs = [| 42.0 |] in
  check_float "q0" 42.0 (Descriptive.quantile xs 0.0);
  check_float "q0.5" 42.0 (Descriptive.quantile xs 0.5);
  check_float "q1" 42.0 (Descriptive.quantile xs 1.0)

let quantile_float_ordering () =
  (* Negative zero, infinities and subnormals must rank by IEEE value
     order — Float.compare, not the polymorphic compare on boxed
     floats. *)
  let xs = [| 0.0; -0.0; Float.infinity; Float.neg_infinity; 1e-310; -1.0 |] in
  check_float "min is -inf" Float.neg_infinity (Descriptive.quantile xs 0.0);
  check_float "max is +inf" Float.infinity (Descriptive.quantile xs 1.0);
  (* sorted: [-inf; -1; -0; 0; 1e-310; +inf]; median interpolates
     between -0 and 0 *)
  check_float "median" 0.0 (Descriptive.quantile xs 0.5)

(* --- Matrix / eigen ------------------------------------------------------------- *)

let matmul_known () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.matmul a b in
  check_float "c00" 19.0 c.(0).(0);
  check_float "c01" 22.0 c.(0).(1);
  check_float "c10" 43.0 c.(1).(0);
  check_float "c11" 50.0 c.(1).(1)

let transpose_involution () =
  let a = Matrix.init ~rows:3 ~cols:2 (fun i j -> float_of_int ((10 * i) + j)) in
  Alcotest.(check bool) "tt = id" true (Matrix.transpose (Matrix.transpose a) = a)

let covariance_known () =
  (* two perfectly correlated columns *)
  let d = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  let c = Matrix.covariance d in
  check_float "var x" 1.0 c.(0).(0);
  check_float "cov xy" 2.0 c.(0).(1);
  check_float "var y" 4.0 c.(1).(1)

let jacobi_diagonal () =
  let m = [| [| 3.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let e = Matrix.jacobi_eigen m in
  check_float "ev0" 3.0 e.Matrix.values.(0);
  check_float "ev1" 1.0 e.Matrix.values.(1)

let jacobi_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 *)
  let m = [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let e = Matrix.jacobi_eigen m in
  checkf 1e-9 "ev0" 3.0 e.Matrix.values.(0);
  checkf 1e-9 "ev1" 1.0 e.Matrix.values.(1);
  (* eigenvector for 3 is (1,1)/sqrt2 up to sign *)
  let v = e.Matrix.vectors.(0) in
  checkf 1e-9 "components equal" 0.0 (abs_float v.(0) -. abs_float v.(1))

let jacobi_reconstructs () =
  (* A = V diag(values) V^T for a random symmetric matrix *)
  let rng = Rca_rng.Splitmix.create 99 in
  let p = 6 in
  let base =
    Matrix.init ~rows:p ~cols:p (fun _ _ -> Rca_rng.Prng.float01 rng -. 0.5)
  in
  let sym = Matrix.init ~rows:p ~cols:p (fun i j -> base.(i).(j) +. base.(j).(i)) in
  let e = Matrix.jacobi_eigen sym in
  (* reconstruct *)
  let recon =
    Matrix.init ~rows:p ~cols:p (fun i j ->
        let s = ref 0.0 in
        for k = 0 to p - 1 do
          s := !s +. (e.Matrix.values.(k) *. e.Matrix.vectors.(k).(i) *. e.Matrix.vectors.(k).(j))
        done;
        !s)
  in
  for i = 0 to p - 1 do
    for j = 0 to p - 1 do
      checkf 1e-8 "reconstruction" sym.(i).(j) recon.(i).(j)
    done
  done

let jacobi_orthonormal () =
  let m = [| [| 4.0; 1.0; 0.5 |]; [| 1.0; 3.0; 0.25 |]; [| 0.5; 0.25; 2.0 |] |] in
  let e = Matrix.jacobi_eigen m in
  for a = 0 to 2 do
    for b = 0 to 2 do
      let dot = ref 0.0 in
      for i = 0 to 2 do
        dot := !dot +. (e.Matrix.vectors.(a).(i) *. e.Matrix.vectors.(b).(i))
      done;
      checkf 1e-9 "orthonormal" (if a = b then 1.0 else 0.0) !dot
    done
  done

(* --- PCA ------------------------------------------------------------------------- *)

let pca_finds_dominant_direction () =
  (* data along the (1,1) direction with small noise in (1,-1) *)
  let rng = Rca_rng.Splitmix.create 3 in
  let n = 200 in
  let data =
    Matrix.init ~rows:n ~cols:2 (fun _ j ->
        ignore j;
        0.0)
  in
  for i = 0 to n - 1 do
    let t = Rca_rng.Prng.gaussian rng in
    let noise = 0.05 *. Rca_rng.Prng.gaussian rng in
    data.(i).(0) <- t +. noise;
    data.(i).(1) <- t -. noise
  done;
  let p = Pca.fit data in
  (* first component close to (1,1)/sqrt2 in standardized space *)
  let c = p.Pca.components.(0) in
  checkf 1e-2 "balanced loading" 0.0 (abs_float c.(0) -. abs_float c.(1));
  check_bool "explains most variance" true
    (p.Pca.explained.(0) > 10.0 *. p.Pca.explained.(1))

let pca_scores_centered () =
  let rng = Rca_rng.Splitmix.create 17 in
  let n = 50 and p = 4 in
  let data =
    Matrix.init ~rows:n ~cols:p (fun _ _ -> (10.0 *. Rca_rng.Prng.float01 rng) +. 5.0)
  in
  let model = Pca.fit data in
  let scores = Pca.transform model data in
  for k = 0 to model.Pca.n_components - 1 do
    let col = Array.init n (fun i -> scores.(i).(k)) in
    checkf 1e-8 "score mean 0" 0.0 (Descriptive.mean col)
  done

let pca_limits_components () =
  let data = Matrix.init ~rows:5 ~cols:10 (fun i j -> float_of_int ((i * j) + i)) in
  let p = Pca.fit data in
  check_bool "components <= n-1" true (p.Pca.n_components <= 4)

(* --- Logistic lasso ------------------------------------------------------------------ *)

(* synthetic classification: y determined by feature 0 only *)
let make_classification ~seed ~n ~p ~informative_shift =
  let rng = Rca_rng.Splitmix.create seed in
  let x =
    Matrix.init ~rows:(2 * n) ~cols:p (fun _ _ -> Rca_rng.Prng.gaussian rng)
  in
  let y = Array.init (2 * n) (fun i -> if i < n then 0.0 else 1.0) in
  for i = n to (2 * n) - 1 do
    x.(i).(0) <- x.(i).(0) +. informative_shift
  done;
  (x, y)

let logistic_learns_separation () =
  let x, y = make_classification ~seed:5 ~n:60 ~p:4 ~informative_shift:4.0 in
  let m = Logistic.fit ~lambda:0.01 x y in
  let correct = ref 0 in
  Array.iteri (fun i row -> if Logistic.predict m row = y.(i) then incr correct) x;
  check_bool "accuracy > 90%" true (float_of_int !correct /. 120.0 > 0.9)

let lasso_zeroes_noise_features () =
  let x, y = make_classification ~seed:7 ~n:80 ~p:8 ~informative_shift:5.0 in
  let m = Logistic.fit_select ~target:1 x y in
  let nz = Logistic.nonzero_features m in
  check_bool "feature 0 survives" true (List.mem 0 nz);
  check_bool "small support" true (List.length nz <= 3)

let lambda_max_kills_everything () =
  let x, y = make_classification ~seed:11 ~n:40 ~p:5 ~informative_shift:3.0 in
  let lmax = Logistic.lambda_max x y in
  let m = Logistic.fit ~lambda:(2.0 *. lmax) x y in
  check_int "no features" 0 (List.length (Logistic.nonzero_features m))

let fit_select_hits_target () =
  (* several informative features with decreasing strength *)
  let rng = Rca_rng.Splitmix.create 23 in
  let n = 80 and p = 12 in
  let x = Matrix.init ~rows:(2 * n) ~cols:p (fun _ _ -> Rca_rng.Prng.gaussian rng) in
  let y = Array.init (2 * n) (fun i -> if i < n then 0.0 else 1.0) in
  for i = n to (2 * n) - 1 do
    for j = 0 to 7 do
      x.(i).(j) <- x.(i).(j) +. (4.0 /. float_of_int (j + 1))
    done
  done;
  let m = Logistic.fit_select ~target:5 x y in
  let k = List.length (Logistic.nonzero_features m) in
  check_bool "support near 5" true (k >= 2 && k <= 8)

(* --- Select -------------------------------------------------------------------------- *)

let names4 = [| "wsub"; "omega"; "flds"; "qrl" |]

let shifted_data ~shift_col ~shift =
  let rng = Rca_rng.Splitmix.create 31 in
  let mk rows extra =
    Matrix.init ~rows ~cols:4 (fun _ j ->
        Rca_rng.Prng.gaussian rng +. (if j = shift_col then extra else 0.0))
  in
  (mk 40 0.0, mk 20 shift)

let median_distance_finds_shift () =
  let ens, exp_ = shifted_data ~shift_col:0 ~shift:8.0 in
  let ranked = Select.median_distance ~names:names4 ~ensemble:ens ~experimental:exp_ in
  (match ranked with
  | top :: _ ->
      Alcotest.(check string) "wsub first" "wsub" top.Select.name;
      check_bool "huge score" true (top.Select.score > 3.0)
  | [] -> Alcotest.fail "nothing selected");
  check_bool "few variables" true (List.length ranked <= 2)

let median_distance_empty_when_consistent () =
  let rng = Rca_rng.Splitmix.create 41 in
  let mk rows = Matrix.init ~rows ~cols:4 (fun _ _ -> Rca_rng.Prng.gaussian rng) in
  let ranked = Select.median_distance ~names:names4 ~ensemble:(mk 60) ~experimental:(mk 30) in
  (* consistent runs: overlapping IQRs everywhere, or at most a fluke *)
  check_bool "selects nothing (or a fluke)" true (List.length ranked <= 1)

let lasso_selection_finds_shift () =
  let ens, exp_ = shifted_data ~shift_col:2 ~shift:6.0 in
  let ranked = Select.lasso ~target:1 ~names:names4 ~ensemble:ens ~experimental:exp_ () in
  match ranked with
  | top :: _ -> Alcotest.(check string) "flds first" "flds" top.Select.name
  | [] -> Alcotest.fail "nothing selected"

let direct_comparison_flags_changes () =
  let member = [| 1.0; 2.0; 3.0; 4.0 |] in
  let experiment = [| 1.0; 2.0 +. 1e-6; 3.0; 4.0 |] in
  let ranked = Select.direct_comparison ~names:names4 ~member ~experiment in
  Alcotest.(check (list string)) "only omega" [ "omega" ] (Select.names_of ranked)

let take_limits () =
  let ranked =
    [ Select.{ name = "a"; score = 3.0 }; { name = "b"; score = 2.0 }; { name = "c"; score = 1.0 } ]
  in
  Alcotest.(check (list string)) "take 2" [ "a"; "b" ] (Select.names_of (Select.take 2 ranked))

(* --- ECT ------------------------------------------------------------------------------ *)

let make_ensemble ~seed ~runs ~vars =
  let rng = Rca_rng.Splitmix.create seed in
  (* correlated structure: latent factors + noise, like climate fields *)
  Matrix.init ~rows:runs ~cols:vars (fun _ _ -> 0.0)
  |> Array.map (fun row ->
         let f1 = Rca_rng.Prng.gaussian rng and f2 = Rca_rng.Prng.gaussian rng in
         Array.mapi
           (fun j _ ->
             let w = float_of_int (j mod 3 + 1) /. 3.0 in
             (w *. f1) +. ((1.0 -. w) *. f2) +. (0.1 *. Rca_rng.Prng.gaussian rng))
           row)

let ect_passes_consistent_runs () =
  let vars = 8 in
  let names = Array.init vars (fun i -> Printf.sprintf "v%d" i) in
  let ens = make_ensemble ~seed:1 ~runs:60 ~vars in
  let t = Rca_ect.Ect.fit ~var_names:names ens in
  let test = make_ensemble ~seed:2 ~runs:3 ~vars in
  Alcotest.(check string) "pass" "Pass"
    (Rca_ect.Ect.verdict_string (Rca_ect.Ect.evaluate t test).Rca_ect.Ect.verdict)

let ect_fails_shifted_runs () =
  let vars = 8 in
  let names = Array.init vars (fun i -> Printf.sprintf "v%d" i) in
  let ens = make_ensemble ~seed:3 ~runs:60 ~vars in
  let t = Rca_ect.Ect.fit ~var_names:names ens in
  let test = make_ensemble ~seed:4 ~runs:3 ~vars in
  Array.iter (fun row -> row.(0) <- row.(0) +. 10.0; row.(3) <- row.(3) -. 8.0) test;
  let res = Rca_ect.Ect.evaluate t test in
  Alcotest.(check string) "fail" "Fail" (Rca_ect.Ect.verdict_string res.Rca_ect.Ect.verdict);
  check_bool "each run flags pcs" true
    (List.for_all (fun r -> r.Rca_ect.Ect.failing_pcs <> []) res.Rca_ect.Ect.runs)

let ect_failure_rate_bounds () =
  let vars = 6 in
  let names = Array.init vars (fun i -> Printf.sprintf "v%d" i) in
  let ens = make_ensemble ~seed:5 ~runs:50 ~vars in
  let t = Rca_ect.Ect.fit ~var_names:names ens in
  let good_pool = make_ensemble ~seed:6 ~runs:12 ~vars in
  let bad_pool = make_ensemble ~seed:7 ~runs:12 ~vars in
  Array.iter (fun row -> row.(1) <- row.(1) +. 12.0) bad_pool;
  let fr_good = Rca_ect.Ect.failure_rate t ~pool:good_pool ~trials:10 () in
  let fr_bad = Rca_ect.Ect.failure_rate t ~pool:bad_pool ~trials:10 () in
  check_bool "good rate low" true (fr_good <= 0.2);
  check_bool "bad rate high" true (fr_bad >= 0.8)

let ect_rejects_tiny_ensemble () =
  let names = [| "a"; "b" |] in
  Alcotest.check_raises "too small" (Invalid_argument "Ect.fit: ensemble too small")
    (fun () ->
      ignore (Rca_ect.Ect.fit ~var_names:names (Matrix.make ~rows:3 ~cols:2 0.0)))

(* --- qcheck properties ------------------------------------------------------------------ *)

let float_array_gen =
  QCheck2.Gen.(array_size (int_range 2 40) (float_bound_inclusive 100.0))

let prop_median_between_extremes =
  QCheck2.Test.make ~name:"median within [min,max]" ~count:300 float_array_gen (fun xs ->
      let m = Descriptive.median xs in
      let lo = Array.fold_left Float.min infinity xs in
      let hi = Array.fold_left Float.max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_variance_nonneg =
  QCheck2.Test.make ~name:"variance nonnegative" ~count:300 float_array_gen (fun xs ->
      Descriptive.variance xs >= 0.0)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantile monotone in q" ~count:200 float_array_gen (fun xs ->
      Descriptive.quantile xs 0.25 <= Descriptive.quantile xs 0.75 +. 1e-12)

let prop_jacobi_trace_preserved =
  QCheck2.Test.make ~name:"eigenvalues sum to trace" ~count:100
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 100000))
    (fun (p, seed) ->
      let rng = Rca_rng.Splitmix.create seed in
      let b = Matrix.init ~rows:p ~cols:p (fun _ _ -> Rca_rng.Prng.float01 rng -. 0.5) in
      let sym = Matrix.init ~rows:p ~cols:p (fun i j -> b.(i).(j) +. b.(j).(i)) in
      let e = Matrix.jacobi_eigen sym in
      let trace = ref 0.0 and esum = ref 0.0 in
      for i = 0 to p - 1 do
        trace := !trace +. sym.(i).(i);
        esum := !esum +. e.Matrix.values.(i)
      done;
      abs_float (!trace -. !esum) < 1e-8)

let prop_soft_threshold_shrinks =
  QCheck2.Test.make ~name:"soft threshold shrinks towards zero" ~count:300
    QCheck2.Gen.(pair (float_bound_inclusive 10.0) (float_bound_inclusive 5.0))
    (fun (x, t) ->
      let t = abs_float t in
      let y = Logistic.soft_threshold x t in
      abs_float y <= abs_float x && (x = 0.0 || abs_float x > t || y = 0.0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_median_between_extremes;
      prop_variance_nonneg;
      prop_quantile_monotone;
      prop_jacobi_trace_preserved;
      prop_soft_threshold_shrinks;
    ]

let () =
  Alcotest.run "rca_stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "moments" `Quick basic_moments;
          Alcotest.test_case "quantiles" `Quick quantiles;
          Alcotest.test_case "unsorted input" `Quick quantile_unsorted_input;
          Alcotest.test_case "iqr overlap" `Quick iqr_overlap_cases;
          Alcotest.test_case "standardize" `Quick standardize_degenerate;
          Alcotest.test_case "empty rejected" `Quick empty_rejected;
          Alcotest.test_case "quantile NaN rejected" `Quick quantile_nan_rejected;
          Alcotest.test_case "quantile single element" `Quick quantile_single_element;
          Alcotest.test_case "quantile float ordering" `Quick quantile_float_ordering;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "matmul" `Quick matmul_known;
          Alcotest.test_case "transpose" `Quick transpose_involution;
          Alcotest.test_case "covariance" `Quick covariance_known;
          Alcotest.test_case "jacobi diagonal" `Quick jacobi_diagonal;
          Alcotest.test_case "jacobi 2x2" `Quick jacobi_known_2x2;
          Alcotest.test_case "jacobi reconstruction" `Quick jacobi_reconstructs;
          Alcotest.test_case "jacobi orthonormal" `Quick jacobi_orthonormal;
        ] );
      ( "pca",
        [
          Alcotest.test_case "dominant direction" `Quick pca_finds_dominant_direction;
          Alcotest.test_case "scores centered" `Quick pca_scores_centered;
          Alcotest.test_case "component limit" `Quick pca_limits_components;
        ] );
      ( "logistic",
        [
          Alcotest.test_case "learns separation" `Quick logistic_learns_separation;
          Alcotest.test_case "lasso sparsity" `Quick lasso_zeroes_noise_features;
          Alcotest.test_case "lambda max" `Quick lambda_max_kills_everything;
          Alcotest.test_case "target support" `Quick fit_select_hits_target;
        ] );
      ( "select",
        [
          Alcotest.test_case "median distance" `Quick median_distance_finds_shift;
          Alcotest.test_case "consistent -> empty" `Quick median_distance_empty_when_consistent;
          Alcotest.test_case "lasso selection" `Quick lasso_selection_finds_shift;
          Alcotest.test_case "direct comparison" `Quick direct_comparison_flags_changes;
          Alcotest.test_case "take" `Quick take_limits;
        ] );
      ( "ect",
        [
          Alcotest.test_case "passes consistent" `Quick ect_passes_consistent_runs;
          Alcotest.test_case "fails shifted" `Quick ect_fails_shifted_runs;
          Alcotest.test_case "failure rates" `Quick ect_failure_rate_bounds;
          Alcotest.test_case "tiny ensemble rejected" `Quick ect_rejects_tiny_ensemble;
        ] );
      ("properties", qcheck_cases);
    ]
