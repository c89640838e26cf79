(** Graph statistics behind the paper's Figures 4, 9 and 10: degree
    distributions and power-law exponent estimates.  Every degree is a
    total (in + out) degree, and the power-law fit uses the fixed lower
    cut-off [xmin] = 2. *)

val degrees : Digraph.t -> int array
(** Total (in + out) degree of every node. *)

val degree_histogram : Digraph.t -> (int * int) list
(** (degree, count) for every occurring degree, ascending. *)

val degree_ccdf : Digraph.t -> (int * float) list
(** Complementary cumulative distribution P(D >= d). *)

val power_law_alpha : Digraph.t -> float option
(** Discrete maximum-likelihood power-law exponent (Clauset–Shalizi–Newman
    2009 approximation) over degrees >= 2. *)

type summary = {
  nodes : int;
  edges : int;
  max_degree : int;
  mean_degree : float;
  components : int;
  alpha : float option;
}

val summarize : Digraph.t -> summary
val pp_summary : Format.formatter -> summary -> unit

val rank_series : float array -> (int * float) list
(** (rank, |score|) sorted descending — the series of Figure 11. *)
