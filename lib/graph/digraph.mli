(** Mutable directed graph over dense integer node ids [0, n).

    The NetworkX substitute used throughout the pipeline.  Parallel edges
    are rejected at insertion so [m] counts distinct directed edges,
    matching how the paper reports graph sizes. *)

type t

type sub = {
  graph : t;  (** the induced subgraph, re-numbered densely *)
  to_parent : int array;  (** subgraph id -> parent id *)
  of_parent : (int, int) Hashtbl.t;  (** parent id -> subgraph id *)
}
(** An induced subgraph together with its node-id correspondence. *)

val create : ?size_hint:int -> unit -> t
val add_node : t -> int
(** Allocate and return a fresh node id. *)

val ensure_node : t -> int -> unit
(** [ensure_node t v] makes [v] (and all smaller ids) valid nodes. *)

val add_edge : t -> int -> int -> unit
(** Insert a directed edge; duplicate insertions are ignored. *)

val remove_edge : t -> int -> int -> unit
val mem_edge : t -> int -> int -> bool

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of distinct directed edges. *)

val succ : t -> int -> int list
val pred : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int

val degree : t -> int -> int
(** Alias for {!out_degree}; on a symmetrized graph this is the undirected
    degree. *)

val iter_nodes : (int -> unit) -> t -> unit
val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list
val nodes : t -> int list

val of_edges : n:int -> (int * int) list -> t
val copy : t -> t

val reverse : t -> t
(** Transpose: every edge [u -> v] becomes [v -> u]. *)

val to_undirected : t -> t
(** Symmetric closure; the paper's "convert the directed subgraph into an
    undirected subgraph" step before community detection. *)

val adjacency : t -> int list array * int list array
(** [(succ, pred)] adjacency lists in their exact stored order — the
    serialization form for snapshots.  Both orders matter: {!add_edge}
    prepends, so neither list order is derivable from the other, and
    kernels walk these lists front to back. *)

val of_adjacency : n:int -> succ:int list array -> pred:int list array -> t
(** Rebuild a graph from {!adjacency} output, preserving both list
    orders exactly (the loaded graph is structurally bitwise identical
    to the saved one).  Raises [Invalid_argument] on out-of-range ids,
    duplicate edges, or a [pred] that is not the transpose of [succ]. *)

val induced_subgraph : t -> int list -> sub
(** [induced_subgraph t vs] is the subgraph induced by the (deduplicated)
    node list [vs], densely renumbered, with the id correspondence. *)

val sub_of_parent : sub -> int -> int option
val sub_to_parent : sub -> int -> int
