(** The masked refinement engine's substrate: one frozen CSR snapshot of
    the metagraph plus its transpose, shared by slicing and every
    refinement iteration.  Node ids are the metagraph's own ids, and the
    current subgraph is a node-alive {!Rca_graph.Csr.mask} — node
    removal (steps 8a/8b, residual-cluster dropping, static pruning) is
    a byte flip instead of an induced-subgraph rebuild.

    Bit-compatibility contract: every function returns exactly what the
    list-based path computes on the materialized induced subgraph,
    mapped back to parent ids — the list path lives in test/oracle as
    the differential reference. *)

module G := Rca_graph

type t = {
  csr : G.Csr.t;  (** frozen snapshot, arc ids in [iter_edges] order *)
  rev : G.Csr.t;  (** transpose, for reverse (ancestor) traversals *)
}

val freeze : G.Digraph.t -> t
(** Snapshot the graph once ([frozen.freeze] span); O(n + m). *)

val of_csr : G.Csr.t -> t
(** Wrap an already-materialized CSR (e.g. one a snapshot loader rebuilt
    with {!Rca_graph.Csr.of_rows}); the transpose is computed exactly as
    {!freeze} would. *)

val n : t -> int

val mask_of_list : t -> int list -> G.Csr.mask
val full_mask : t -> G.Csr.mask

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

val induced_sub : t -> int list -> G.Digraph.sub
(** The induced subgraph materialized from the frozen rows —
    structurally bitwise identical to
    [Digraph.induced_subgraph g nodes], for handing a community or
    centrality kernel its expected input. *)
