(** Node centralities (paper Sections 5.2–5.3 and supplementary 8.1).

    The pipeline ranks nodes by eigenvector {e in}-centrality — looking
    for information sinks likely to be affected by upstream bug
    sources.

    Power iterations run at fixed settings: at most 200 sweeps
    ([max_iter]), stopping once the L1 change falls below 1e-10 per
    entry ([tol]) for eigenvector and non-backtracking centrality;
    PageRank damps by 0.85 ([pagerank_d]) to an absolute L1 tolerance
    of 1e-12 ([pagerank_tol]). *)

type direction = In | Out

val degree : ?direction:direction -> Digraph.t -> float array
(** Degree centrality, normalized by [n-1]. *)

val eigenvector_csr : ?pool:Pool.t -> Csr.t -> float array
(** Eigenvector centrality by shifted power iteration (x <- x + Mx, the
    NetworkX convergence trick), L2-normalized, gathering over the rows
    it is given: row [v] lists the nodes [x_v] accumulates from.  On a
    {!Csr.transpose} (or a subgraph {!Csr.induced} from one) that is
    in-centrality, whose transposed rows reproduce the historical
    edge-scatter summation sequence, so results are bitwise identical to
    the adjacency-list implementation.  [pool] chunks the rows across
    domains without changing any sum (sequential and parallel sweeps
    agree bitwise at every pool size). *)

val eigenvector : ?direction:direction -> ?pool:Pool.t -> Digraph.t -> float array
(** {!eigenvector_csr} on the digraph's CSR: [In] (default) gathers from
    predecessors (information sinks), [Out] from successors. *)

val pagerank : Digraph.t -> float array
(** PageRank with damping 0.85; dangling mass redistributed uniformly.
    Sums to 1. *)

val non_backtracking : ?direction:direction -> Digraph.t -> float array
(** Hashimoto non-backtracking centrality (supplementary 8.1): power
    iteration on the edge non-backtracking operator, collapsed to nodes.
    Nodes with no incident edges in the relevant orientation get 0 — the
    sharp drop in the paper's Figure 11. *)

val rank : float array -> int array
(** Node ids by descending score; ties broken by id (reproducible). *)

val top_k : float array -> int -> (int * float) list
(** The [k] best (node, score) pairs. *)
