(** Algorithm 5.4: iterative refinement by community detection,
    eigenvector in-centrality and (simulated or real) runtime sampling —
    a k-ary search over the slice.

    The metagraph is frozen once into a {!Frozen.t} CSR and the 8a/8b
    removals are node-alive bitmask flips plus masked reverse BFS; the
    step-5 and step-6 kernels run on subgraphs cut from the frozen
    arrays with {!Rca_graph.Csr.induced}.  Iteration sequences,
    partitions, final node sets and outcomes are bit identical to the
    list-based reference in test/oracle, which rebuilds
    [Digraph.induced_subgraph] for every ancestor computation and every
    kernel call. *)

module MG := Rca_metagraph.Metagraph

type iteration = {
  nodes : int list;  (** subgraph at the start of the iteration *)
  n_nodes : int;
  n_edges : int;
  communities : int list list;  (** significant communities (>= min size) *)
  sampled_by_community : int list list;  (** top-central ids per community *)
  sampled : int list;
  detected : int list;
}

type outcome =
  | Converged  (** at or below the manual-analysis size *)
  | Fixed_point  (** refinement stopped shrinking (paper Section 6.3) *)
  | Exhausted  (** iteration budget reached *)
  | Emptied  (** every node was excluded *)

type result = {
  iterations : iteration list;
  final_nodes : int list;
  outcome : outcome;
}

type partitioner =
  | Girvan_newman  (** exact incremental G-N — the paper's detector *)
  | Modularity_greedy
      (** deterministic modularity-greedy agglomeration
          ({!Rca_graph.Community.modularity_greedy_csr}) *)
  | Label_propagation

val partitioner_string : partitioner -> string
(** Canonical CLI name. *)

val partitioner_names : string
(** Every detector's canonical name, joined by ['|'] — the one list
    usage and error messages name detectors from. *)

val partitioner_of_string : string -> partitioner option
(** Parse a detector name (canonical names plus aliases girvan-newman /
    exact, modularity-greedy / leiden, label-propagation).  The single
    parser behind every [--detector] flag. *)

val communities_of :
  ?gn_approx:int ->
  ?min_community:int ->
  ?partitioner:partitioner ->
  ?pool:Rca_graph.Pool.t ->
  frozen:Frozen.t ->
  int list ->
  int list list
(** Step 5's community split on the subgraph induced on the given nodes
    of [frozen] (sorted and deduplicated first), cut from its symmetric
    closure: one Girvan–Newman iteration by default, or one of the
    alternative partitioners.  [pool] parallelizes the Girvan–Newman
    betweenness recomputations. *)

type centrality_measure = Eigenvector_in | Pagerank | In_degree | Non_backtracking_in

val centrality_scores :
  ?pool:Rca_graph.Pool.t -> centrality_measure -> Rca_graph.Digraph.t -> float array

val central_nodes :
  MG.t ->
  ?m_sample:int ->
  ?measure:centrality_measure ->
  ?pool:Rca_graph.Pool.t ->
  frozen:Frozen.t ->
  int list ->
  int list
(** The top-m central, runtime-instrumentable nodes of one community
    (step 6; the node list is sorted and deduplicated first).  The
    default eigenvector in-centrality gathers over the subgraph cut from
    [frozen]'s transpose; the other measures run their digraph kernels
    on [Digraph.induced_subgraph] of the metagraph. *)

val centrality_ranking : MG.t -> int list -> (int * float) list
(** Full in-centrality ranking of a community, for reporting (the paper's
    AVX2 REPL listing). *)

val by_magnitude : (int -> float) -> int list -> int option
(** Chooser for [choose_when_stuck]: the detected node with the greatest
    observed difference magnitude (the paper's proposed ranking). *)

val smallest_ancestry : frozen:Frozen.t -> int list -> int list -> int option
(** Chooser: the detected node with the smallest in-slice ancestor
    closure — the maximally refining pick when all sampled nodes appear
    equally affected (the paper's alternative proposal).  One masked
    reverse BFS on [frozen] per candidate. *)

val refine :
  ?m_sample:int ->
  ?min_community:int ->
  ?max_iterations:int ->
  ?stop_size:int ->
  ?gn_approx:int ->
  ?partitioner:partitioner ->
  ?measure:centrality_measure ->
  ?choose_when_stuck:(int list -> int list -> int option) ->
  ?pool:Rca_graph.Pool.t ->
  ?frozen:Frozen.t ->
  MG.t ->
  initial:int list ->
  detect:Detector.t ->
  result
(** Run Algorithm 5.4 from the [initial] node set: split (5), rank (6),
    sample (7), shrink by 8a (nothing detected: drop the sampled nodes'
    ancestor closure) or 8b (keep the detected nodes' ancestors), repeat
    (9); a [max_iterations] of zero or less stops before the first
    split.  [pool] (not shut down here) parallelizes the
    community-detection and centrality hot paths, so many refinements
    can share one set of worker domains; a pool of size 1, like none,
    keeps the sequential code paths byte-for-byte, and every pool size
    produces the same final node set.  [frozen] reuses the caller's
    snapshot (one per {!Pipeline.run}) instead of freezing again. *)

val outcome_string : outcome -> string
