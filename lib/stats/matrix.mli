(** Small dense linear algebra: enough for PCA over a few dozen output
    variables. *)

type t = float array array
(** Row-major. *)

val make : rows:int -> cols:int -> float -> t
val init : rows:int -> cols:int -> (int -> int -> float) -> t
val rows : t -> int
val cols : t -> int
val copy : t -> t
val transpose : t -> t
val matmul : t -> t -> t
val matvec : t -> float array -> float array

val covariance : t -> t
(** Sample covariance of the columns (rows are observations); requires at
    least two rows. *)

type eigen = {
  values : float array;  (** descending *)
  vectors : t;  (** [vectors.(k)] is the unit eigenvector for [values.(k)] *)
}

val jacobi_eigen : t -> eigen
(** Cyclic Jacobi eigendecomposition of a symmetric matrix: at most 100
    sweeps, stopping once the off-diagonal Frobenius norm falls below
    1e-12. *)
