(** Community detection (paper Section 5.2).

    Girvan–Newman operates on the undirected (symmetrized) view of the
    subgraph: repeatedly remove the highest-edge-betweenness edge until
    the component count increases — "one G-N iteration" in Algorithm 5.4
    step 5.

    The fast partitioners run at fixed settings: label propagation uses
    SplitMix seed 7 ([lp_seed]) and at most 50 sweeps
    ([lp_max_sweeps]); modularity-greedy contracts at most 12 levels
    ([greedy_max_levels]). *)

type partition = {
  labels : int array;  (** node -> community id (0 = largest) *)
  communities : int list list;  (** sorted by decreasing size *)
}

val partition_of_labels : int array -> int -> partition
val of_components : Digraph.t -> partition
(** Partition into weakly connected components. *)

val community_count : partition -> int

val modularity : Digraph.t -> partition -> float
(** Newman–Girvan modularity [Q] on a symmetrized digraph. *)

type gn_step = {
  partition : partition;
  removed_edges : (int * int) list;
}

val girvan_newman_step_csr :
  ?approx:int -> ?pool:Pool.t -> ?max_removals:int -> Csr.t -> gn_step
(** One Girvan–Newman iteration on a symmetric CSR (an undirected view,
    e.g. {!Csr.undirected} or a subgraph cut from it): remove
    top-betweenness edges until the weak component count increases.
    [approx] estimates betweenness from that many evenly spaced BFS
    sources (deterministic); [max_removals] bounds the work; [pool]
    parallelizes each betweenness recomputation without changing the
    partition.

    Runs on the component-incremental CSR engine: after removing edge
    [(u, v)] only the component containing [u] (and, after a split, the
    one containing [v]) is rescored, by one {!Betweenness.accumulate}
    over exactly the fixed BFS sources inside it; untouched components
    keep their cached scores, and removals flip an arc-alive bit instead
    of rebuilding adjacency lists.  Removal sequences and
    partitions are identical to exact G-N with a full recomputation per
    removal (the test/oracle reference) — bitwise sequentially, within
    the {!Betweenness.beats} tie margin under a pool. *)

val girvan_newman_step :
  ?approx:int -> ?pool:Pool.t -> ?max_removals:int -> Digraph.t -> gn_step
(** {!girvan_newman_step_csr} on the symmetrized digraph. *)

val girvan_newman :
  ?approx:int -> ?pool:Pool.t -> ?max_removals:int -> target:int -> Digraph.t -> gn_step
(** Iterate until at least [target] communities exist (or edges run
    out), on the same incremental engine over the symmetrized digraph;
    [removed_edges] lists the cut sequence in order. *)

val label_propagation_csr : Csr.t -> partition
(** Asynchronous label propagation (Raghavan et al. 2007) on a symmetric
    CSR: a fast alternative partitioner, deterministic (fixed seed). *)

val label_propagation : Digraph.t -> partition
(** {!label_propagation_csr} on the symmetrized digraph. *)

val modularity_greedy_csr : Csr.t -> partition
(** Deterministic modularity-greedy agglomeration on a symmetric CSR
    (Louvain-style local moves + contraction, plus a final
    Leiden-flavoured level-0 refinement sweep).  Its tie-breaking is
    explicit — ascending node order, equal gains keep the smaller
    community id — and its weights are integer-valued, so the result is
    a pure function of the graph, independent of slot order, hashing or
    pool size.  Modularity is monotone from the all-singleton start, so
    the returned partition's [Q] is never below the trivial
    partition's. *)

val modularity_greedy : Digraph.t -> partition
(** {!modularity_greedy_csr} on the symmetrized digraph. *)

val significant_communities : ?min_size:int -> partition -> int list list
(** Communities of at least [min_size] (default 3) nodes — Algorithm 5.4
    omits smaller ones. *)
