(* Small dense linear algebra: enough for PCA (covariance + symmetric
   eigendecomposition via cyclic Jacobi) over a few dozen output
   variables. *)

type t = float array array (* row-major *)

let make ~rows ~cols v : t = Array.init rows (fun _ -> Array.make cols v)
let rows (m : t) = Array.length m
let cols (m : t) = if Array.length m = 0 then 0 else Array.length m.(0)

let init ~rows ~cols f : t = Array.init rows (fun i -> Array.init cols (fun j -> f i j))

let copy (m : t) : t = Array.map Array.copy m

let transpose (m : t) : t = init ~rows:(cols m) ~cols:(rows m) (fun i j -> m.(j).(i))

let matmul (a : t) (b : t) : t =
  let n = rows a and k = cols a and p = cols b in
  if rows b <> k then invalid_arg "Matrix.matmul: dimension mismatch";
  init ~rows:n ~cols:p (fun i j ->
      let s = ref 0.0 in
      for l = 0 to k - 1 do
        s := !s +. (a.(i).(l) *. b.(l).(j))
      done;
      !s)

let matvec (a : t) (x : float array) : float array =
  let n = rows a and k = cols a in
  if Array.length x <> k then invalid_arg "Matrix.matvec: dimension mismatch";
  Array.init n (fun i ->
      let s = ref 0.0 in
      for l = 0 to k - 1 do
        s := !s +. (a.(i).(l) *. x.(l))
      done;
      !s)

(* Sample covariance of the columns of [data] (rows = observations). *)
let covariance (data : t) : t =
  let n = rows data and p = cols data in
  if n < 2 then invalid_arg "Matrix.covariance: need at least 2 observations";
  let means = Array.init p (fun j ->
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := !s +. data.(i).(j)
      done;
      !s /. float_of_int n)
  in
  init ~rows:p ~cols:p (fun a b ->
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := !s +. ((data.(i).(a) -. means.(a)) *. (data.(i).(b) -. means.(b)))
      done;
      !s /. float_of_int (n - 1))

type eigen = {
  values : float array;  (* descending *)
  vectors : t;  (* vectors.(k) is the k-th eigenvector, matching values.(k) *)
}

let jacobi_max_sweeps = 100
let jacobi_tol = 1e-12

(* Cyclic Jacobi eigendecomposition of a symmetric matrix.  O(p^3) per
   sweep; plenty for p <= a few hundred. *)
let jacobi_eigen (m0 : t) : eigen =
  let p = rows m0 in
  if cols m0 <> p then invalid_arg "Matrix.jacobi_eigen: not square";
  let a = copy m0 in
  (* v holds eigenvectors as columns *)
  let v = init ~rows:p ~cols:p (fun i j -> if i = j then 1.0 else 0.0) in
  let off_diag () =
    let s = ref 0.0 in
    for i = 0 to p - 1 do
      for j = i + 1 to p - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    sqrt !s
  in
  let rotate i j =
    if abs_float a.(i).(j) > 1e-300 then begin
      let theta = (a.(j).(j) -. a.(i).(i)) /. (2.0 *. a.(i).(j)) in
      let t =
        let s = if theta >= 0.0 then 1.0 else -1.0 in
        s /. ((s *. theta) +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to p - 1 do
        let aik = a.(i).(k) and ajk = a.(j).(k) in
        a.(i).(k) <- (c *. aik) -. (s *. ajk);
        a.(j).(k) <- (s *. aik) +. (c *. ajk)
      done;
      for k = 0 to p - 1 do
        let aki = a.(k).(i) and akj = a.(k).(j) in
        a.(k).(i) <- (c *. aki) -. (s *. akj);
        a.(k).(j) <- (s *. aki) +. (c *. akj)
      done;
      for k = 0 to p - 1 do
        let vki = v.(k).(i) and vkj = v.(k).(j) in
        v.(k).(i) <- (c *. vki) -. (s *. vkj);
        v.(k).(j) <- (s *. vki) +. (c *. vkj)
      done
    end
  in
  let sweeps = ref 0 in
  while off_diag () > jacobi_tol && !sweeps < jacobi_max_sweeps do
    incr sweeps;
    for i = 0 to p - 2 do
      for j = i + 1 to p - 1 do
        rotate i j
      done
    done
  done;
  (* sort by descending eigenvalue *)
  let order = Array.init p (fun i -> i) in
  Array.sort (fun x y -> compare a.(y).(y) a.(x).(x)) order;
  {
    values = Array.map (fun k -> a.(k).(k)) order;
    vectors = Array.map (fun k -> Array.init p (fun i -> v.(i).(k))) order;
  }
