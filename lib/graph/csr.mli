(** Frozen compressed-sparse-row snapshot of a {!Digraph}.

    The mutable adjacency-list digraph is the construction substrate; the
    graph kernels (Brandes betweenness, eigenvector matvec, the
    component-incremental Girvan–Newman engine) run over this immutable
    int-array view instead.  Arcs get dense ids [0 .. m-1] in
    {!Digraph.iter_edges} order, which makes a plain [float array] the
    edge accumulator (no [(int * int)] hashing on the hot path) and lets
    edge "removal" be a byte flip in an alive bitmask rather than an
    adjacency-list rebuild.

    Determinism contract: the slots of row [u] appear in exactly the
    order [Digraph.succ g u] lists them, so any kernel that walks CSR
    rows visits neighbours in precisely the order the adjacency-list
    kernels do — float accumulation sequences, and therefore results,
    are bitwise identical between the two representations.

    Subgraphs are cut, not rebuilt: {!induced} takes the subgraph on a
    node array from any CSR (a snapshot, its {!transpose} or its
    {!undirected} closure) as a plain CSR of its own, so the community
    and centrality kernels take one input type whether they run on a
    whole graph or on one refinement step's subgraph. *)

type t = private {
  n : int;  (** node count *)
  m : int;  (** arc count; arc ids are [0 .. m-1] *)
  row : int array;  (** length [n + 1]: arcs of node [u] are slots [row.(u) .. row.(u+1) - 1] *)
  col : int array;  (** length [m]: target of each arc *)
  src : int array;  (** length [m]: source of each arc *)
  rev : int array;  (** length [m]: arc id of the reverse arc [(v, u)], or [-1] if absent;
                        a self-loop is its own reverse *)
}

val of_digraph : Digraph.t -> t
(** Snapshot of the whole graph; arc [i] is the [i]-th edge of
    [Digraph.iter_edges]. *)

val transpose : t -> t
(** Arc-reversed view: row [v] lists the sources of arcs into [v], in
    ascending-source order (= global iteration order), which is exactly
    the accumulation order of a sequential edge scatter — the gather
    over a transposed row is bitwise identical to it. *)

val undirected : t -> rev:t -> t
(** Symmetric closure of [t], given its transpose [rev].  Rows come in
    the slot order {!Digraph.to_undirected} gives the
    {!Digraph.induced_subgraph} of an ascending node list: for node [x],
    the in-neighbours above [x] that are not out-neighbours (descending),
    then the out-neighbours in row order less the in-neighbours below
    [x], then the in-neighbours below [x] (descending).  Restricting a
    row to a node set keeps this order, so [induced (undirected t ~rev)
    verts] equals [of_digraph (Digraph.to_undirected sub)] field for
    field, where [sub] is the induced subgraph on [verts]. *)

val induced : t -> int array -> t
(** [induced t verts] is the subgraph on the strictly ascending node
    array [verts]: node [i] stands for [verts.(i)], and each row keeps
    the parent's slot order.  Allocates only arrays sized by the
    subgraph.  Raises [Invalid_argument] unless [verts] is strictly
    ascending and in range.  On a transpose, [induced rev verts] equals
    [transpose (of_digraph sub)] field for field. *)

(** {1 Node-alive masks}

    One byte per node (['\001'] alive).  A frozen CSR plus a mask is the
    masked refinement engine's representation of "the subgraph induced on
    the alive nodes": kernels skip dead endpoints, so removing a node is
    a byte flip instead of an induced-subgraph rebuild. *)

type mask = Bytes.t

val full_mask : t -> mask

val mask_of_list : t -> int list -> mask
(** Mask with exactly the listed nodes alive; raises on out-of-range
    ids. *)

val mask_mem : mask -> int -> bool

val alive_arcs : t -> mask -> int
(** Number of arcs with both endpoints alive — the induced subgraph's
    edge count, computed without building it. *)

val out_degree : t -> int -> int

val arc_id : t -> int -> int -> int
(** [arc_id t u v] is the dense id of arc [(u, v)], or [-1]; linear in
    [out_degree t u]. *)

val iter_arcs : (int -> int -> int -> unit) -> t -> unit
(** [iter_arcs f t] calls [f id u v] for every arc in id order (=
    {!Digraph.iter_edges} order of the source graph). *)
