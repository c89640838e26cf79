(** The masked refinement engine's substrate: one frozen CSR snapshot of
    the metagraph, its transpose and its symmetric closure, shared by
    slicing and every refinement iteration.  Node ids are the
    metagraph's own ids, and the current subgraph is a node-alive
    {!Rca_graph.Csr.mask} — node removal (steps 8a/8b, residual-cluster
    dropping, static pruning) is a byte flip instead of an
    induced-subgraph rebuild.  The community and centrality kernels run
    on subgraphs cut from [und] and [rev] with {!Rca_graph.Csr.induced}.

    Bit-compatibility contract: every function returns exactly what the
    list-based path computes on the materialized induced subgraph,
    mapped back to parent ids — the list path lives in test/oracle as
    the differential reference. *)

module G := Rca_graph

type t = {
  csr : G.Csr.t;  (** frozen snapshot, arc ids in [iter_edges] order *)
  rev : G.Csr.t;  (** transpose, for reverse (ancestor) traversals;
                      [Csr.induced rev verts] is the transposed induced
                      subgraph eigenvector in-centrality gathers over *)
  und : G.Csr.t;
      (** [Csr.undirected csr ~rev]: [Csr.induced und verts] is, field
          for field, the CSR of [Digraph.to_undirected] on the induced
          subgraph of the ascending [verts] — what the partitioners
          read *)
}

val freeze : G.Digraph.t -> t
(** Snapshot the graph once ([frozen.freeze] span); O(n + m). *)

val mask_of_list : t -> int list -> G.Csr.mask

val ancestors : t -> alive:G.Csr.mask -> int list -> int list
(** Alive nodes from which any alive target is reachable (targets
    included), ascending — the induced-subgraph ancestor closure without
    the rebuild. *)

val ancestor_dist : t -> alive:G.Csr.mask -> int list -> int array
(** Distance-to-targets array; {!Rca_graph.Traverse.no_dist} marks
    unreachable or dead nodes (step 8a reads the visited set from it). *)

val components : t -> alive:G.Csr.mask -> int list list
(** Masked weakly connected components, in parent ids. *)

val alive_arcs : t -> G.Csr.mask -> int
(** Edge count of the subgraph induced on the alive nodes. *)
