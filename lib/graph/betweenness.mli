(** Brandes' algorithm (2001) for betweenness centrality on unweighted
    graphs.  Edge betweenness is the engine of Girvan–Newman community
    detection.

    Every entry point runs on the {!Csr} kernel — a plain [float array]
    edge accumulator indexed by dense arc id, scratch reset in
    O(visited) per source, and an optional arc-alive bitmask for
    Girvan–Newman edge removal.  CSR rows preserve adjacency-list order,
    so the sequential kernel is bitwise identical to the historical
    adjacency-list + hashtable implementation, which test/oracle keeps
    as the differential reference.

    Every entry point takes an optional [?pool]: with a {!Pool.t} of size
    [>= 2] the per-source accumulation fans out across domains in
    fixed-size source chunks whose partials are merged by a deterministic
    tree reduction — results are bitwise-identical for every pool size
    [>= 2] and within last-ulp float noise of the sequential path.

    Pool use is adaptive: batches of at most {!chunk_sources} sources
    would occupy a single chunk (no parallelism, a full barrier), so they
    run inline even when a pool is supplied.  This cannot change any
    result — a one-chunk pooled batch accumulates in the same sequential
    source order the inline path uses. *)

val chunk_sources : int
(** Sources per parallel chunk — fixed (never a function of pool size)
    as part of the deterministic contract: the chunk structure, and so
    the merged float sums, depend only on the source count. *)

type csr_acc = {
  csr_node_bc : float array;  (** indexed by node id *)
  csr_edge_bc : float array;  (** indexed by dense arc id *)
}

val create_csr_acc : Csr.t -> csr_acc

type csr_scratch
(** Per-domain BFS scratch, reused across sources and reset in
    O(visited) — a source confined to a small component costs
    O(n_c + m_c), not O(n). *)

val make_csr_scratch : Csr.t -> csr_scratch

val csr_accumulate_from :
  Csr.t ->
  ?alive:Bytes.t ->
  csr_scratch ->
  node_bc:float array ->
  edge_bc:float array ->
  int ->
  unit
(** One source's contribution over CSR, added into the caller's
    accumulators.  [alive] masks arcs out (a ['\000'] byte at an arc id
    means removed); scores are bitwise identical to a hashtable Brandes
    on the corresponding digraph. *)

val csr_compute_sources : ?pool:Pool.t -> ?alive:Bytes.t -> Csr.t -> int array -> csr_acc
(** CSR betweenness restricted to the given BFS sources, under the
    chunked-deterministic [?pool] contract above. *)

val csr_compute : ?pool:Pool.t -> ?alive:Bytes.t -> Csr.t -> csr_acc
(** Exact CSR betweenness from every source. *)

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
