(** Weakly connected components: the paper symmetrizes subgraphs before
    community detection and drops residual clusters below a size
    threshold. *)

val weakly_connected_labels : Digraph.t -> int array * int
(** Per-node component labels and the component count. *)

val weakly_connected_components : Digraph.t -> int list list

val count_weakly_connected : Digraph.t -> int

val weakly_connected_components_csr :
  Csr.t -> rev:Csr.t -> alive:Csr.mask -> int list list
(** Weak components of the subgraph induced on the alive nodes of a
    frozen CSR, in parent ids, without materializing it.  [rev] is the
    graph's {!Csr.transpose}.  Components come in discovery order
    (ascending smallest member), each ascending — exactly what
    {!weakly_connected_components} yields on the induced subgraph of an
    ascending node list, mapped back to parent ids. *)
