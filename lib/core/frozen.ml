(* The masked refinement engine's substrate: one CSR snapshot of the
   metagraph, its transpose and its symmetric closure, frozen once per
   Pipeline.run (or per loaded snapshot) and shared by slicing and every
   refinement iteration.  Node ids are the metagraph's own ids — no
   renumbering, no to_parent maps — and the current subgraph is a
   node-alive bitmask, so the removals of steps 8a/8b,
   drop_small_clusters and static pruning are byte flips instead of
   Digraph.induced_subgraph rebuilds.

   Everything here is bit-compatible with the list-based path: the
   masked BFS/component kernels return the same node sets in the same
   (ascending) order.  The community and centrality kernels take plain
   CSRs cut from these arrays with Csr.induced: on [und] that is the
   symmetrized induced subgraph G-N, label propagation and
   modularity-greedy read, on [rev] the transposed one eigenvector
   in-centrality gathers over, both slot for slot what a
   Digraph.induced_subgraph rebuild would give them.  The list-based
   path lives in test/oracle as the differential reference, next to the
   hashtable Brandes the CSR kernel is checked against. *)

module G = Rca_graph

type t = {
  csr : G.Csr.t;  (* frozen snapshot, arc ids in iter_edges order *)
  rev : G.Csr.t;  (* transpose, for reverse (ancestor) traversals *)
  und : G.Csr.t;  (* symmetric closure, for the partitioners *)
}

let freeze g =
  Rca_obs.Obs.span "frozen.freeze" @@ fun () ->
  let csr = G.Csr.of_digraph g in
  let rev = G.Csr.transpose csr in
  { csr; rev; und = G.Csr.undirected csr ~rev }

let mask_of_list t nodes = G.Csr.mask_of_list t.csr nodes

(* Ancestors of [targets] within the alive nodes, ascending — what an
   induced-subgraph rebuild plus reverse BFS computes, without the
   rebuild. *)
let ancestors t ~alive targets = G.Traverse.ancestors_csr ~rev:t.rev ~alive targets

(* Distance-to-targets array over the alive nodes; callers that need the
   visited set as marks (step 8a's kill set) read it directly. *)
let ancestor_dist t ~alive targets =
  G.Traverse.bfs_dist_rev_csr ~rev:t.rev ~alive targets

let components t ~alive =
  G.Components.weakly_connected_components_csr t.csr ~rev:t.rev ~alive

let alive_arcs t alive = G.Csr.alive_arcs t.csr alive
