(** Hybrid program slicing (paper Section 5.1): the static backward slice
    of the variable digraph on the canonical names of the affected
    internal variables, computed over coverage-filtered source.

    The slice is computed on one frozen {!Frozen.t} snapshot: module
    restriction, exclusions and residual-cluster dropping are node-alive
    mask flips.  The list-based reference in test/oracle (BFS over
    [Digraph.pred] plus induced-subgraph components) produces identical
    slices. *)

module MG := Rca_metagraph.Metagraph

type t = {
  mg : MG.t;  (** the graph the slice lives in *)
  nodes : int list;  (** slice node ids, ascending *)
  targets : int list;  (** the slicing-criteria nodes kept in the slice *)
  node_set : (int, unit) Hashtbl.t;
      (** hash set over [nodes]: {!contains} and the target filter are
          O(1) lookups, not [List.mem] over the whole slice *)
}

val size : t -> int

val internal_names_of_outputs : MG.t -> string list -> string list
(** Resolve history/output names to internal canonical names through the
    recorded [outfld] label instrumentation. *)

val target_nodes : MG.t -> string list -> int list
(** Every node whose canonical name matches — the paper's widened slicing
    criterion that guarantees the discrepancy source is inside the
    slice. *)

val of_internals :
  ?keep_module:(string -> bool) ->
  ?min_cluster:int ->
  ?frozen:Frozen.t ->
  ?exclude:int list ->
  MG.t ->
  string list ->
  t
(** Slice on internal canonical names.  [keep_module] cuts nodes from
    excluded modules (the CAM-only restriction); [min_cluster] drops
    weakly connected residual clusters below that size (the paper drops
    clusters of fewer than 4 nodes); [exclude] cuts individual nodes
    (e.g. statically-dead ones) regardless of module.  [frozen] reuses
    an existing snapshot (one per {!Pipeline.run}) instead of freezing
    again. *)

val of_outputs :
  ?keep_module:(string -> bool) ->
  ?min_cluster:int ->
  ?frozen:Frozen.t ->
  ?exclude:int list ->
  MG.t ->
  string list ->
  t
(** Slice on affected output names, resolving the label map first. *)

val subgraph : t -> Rca_graph.Digraph.sub
(** The induced subgraph with the node-id correspondence. *)

val contains : t -> int -> bool
(** Hash-set membership in the slice, O(1). *)

val node_names : t -> string list
