(** Brandes' algorithm (2001) for edge betweenness on unweighted graphs:
    the engine of Girvan–Newman community detection.

    One entry point, {!accumulate}, runs over a {!Csr} snapshot — a plain
    [float array] edge accumulator indexed by dense arc id, scratch reset
    in O(visited) per source, and an arc-alive bitmask for Girvan–Newman
    edge removal.  CSR rows preserve adjacency-list order, so the
    sequential kernel is bitwise identical to the historical
    adjacency-list + hashtable implementation, which test/oracle keeps
    as the differential reference.

    With a {!Pool.t} of size [>= 2] the per-source accumulation fans out
    across domains in fixed-size source chunks whose partials are merged
    by a deterministic tree reduction — results are bitwise-identical for
    every pool size [>= 2] and within last-ulp float noise of the
    sequential path.  Batches of at most {!chunk_sources} sources would
    occupy a single chunk (no parallelism, a full barrier), so they run
    inline even when a pool is supplied; a one-chunk pooled batch would
    add the same floats in the same order, so this gate changes no
    result. *)

val chunk_sources : int
(** Sources per parallel chunk — fixed (never a function of pool size)
    as part of the deterministic contract: the chunk structure, and so
    the merged float sums, depend only on the source count. *)

type scratch
(** BFS scratch for the sequential path, reused across sources and
    batches and reset in O(visited) — a source confined to a small
    component costs O(n_c + m_c), not O(n).  Flat arrays only: a source
    allocates nothing. *)

val make_scratch : Csr.t -> scratch
(** Scratch for this very CSR: {!accumulate} rejects it for any other. *)

val accumulate :
  ?pool:Pool.t ->
  alive:Bytes.t ->
  Csr.t ->
  scratch ->
  int array ->
  edge_bc:float array ->
  unit
(** [accumulate ?pool ~alive csr scratch sources ~edge_bc] adds the edge
    betweenness contributions of BFS [sources] into [edge_bc] (indexed
    by arc id, owned by the caller).  [alive] masks arcs out (a
    ['\000'] byte at an arc id means removed; pass [m] ['\001'] bytes
    for the whole graph).  Sequentially every source adds into
    [edge_bc] in the given order; under a pool each chunk accumulates
    privately and the tree-reduced sum is added in at the end.  Raises
    [Invalid_argument] unless [alive] and [edge_bc] have length
    [csr.m], every source [s] has [0 <= s < csr.n], and [scratch] was made
    by {!make_scratch} for [csr] itself. *)

(** {1 Edge selection} *)

val beats : float -> incumbent:float -> bool
(** Argmax comparison used for edge selection: [beats c ~incumbent] iff
    [c] exceeds [incumbent] by a relative 1e-9 margin.  Scores closer
    than the margin count as a tie (earliest edge wins), which keeps the
    sequential and parallel argmax identical despite summation-order
    float noise. *)

val argmax_edge : ((int -> int -> float -> unit) -> unit) -> (int * int * float) option
(** [argmax_edge iter] folds {!beats} over the candidate edges [iter]
    presents (in a fixed order — the incumbent survives near-ties, so
    earlier edges win them).  The single edge-selection argmax shared by
    the incremental Girvan–Newman engine and the test/oracle reference,
    so both resolve ties identically. *)
