(** Breadth-first traversals and the reachability primitives behind the
    paper's hybrid slicing (Section 5.1).

    For a fixed target, every node from which the target is reachable lies
    on the shortest path from itself to the target, so the paper's "union
    of all BFS shortest paths terminating on the target" equals the
    target's ancestor set. *)

val no_dist : int
(** Marker for unreachable nodes in distance arrays ([-1]). *)

val bfs_dist : Digraph.t -> int list -> int array
(** [bfs_dist g sources] is the array of BFS hop distances from the
    nearest source, following successor edges; [no_dist] if unreachable. *)

val descendants : Digraph.t -> int list -> int list
(** Nodes reachable from any source (sources included), ascending. *)

val ancestors : Digraph.t -> int list -> int list
(** Nodes from which any target is reachable (targets included) — the
    static backward slice, ascending. *)

(** {1 Masked-CSR variants}

    The same primitives over a frozen {!Csr} snapshot restricted to a
    node-alive {!Csr.mask}: results equal those of the subgraph induced
    on the alive nodes — in parent ids, with no subgraph
    materialization.  Dead (or masked-out) sources are skipped.  Reverse
    traversals take the graph's {!Csr.transpose}, computed once and
    reused across calls. *)

val bfs_dist_csr : Csr.t -> alive:Csr.mask -> int list -> int array
(** BFS hop distances from the nearest alive source through alive nodes;
    [no_dist] for unreachable or dead nodes. *)

val bfs_dist_rev_csr : rev:Csr.t -> alive:Csr.mask -> int list -> int array
(** Distances {e to} the given targets; [rev] is the transpose CSR. *)

val ancestors_csr : rev:Csr.t -> alive:Csr.mask -> int list -> int list
(** Alive nodes from which any alive target is reachable (targets
    included), ascending — the masked static backward slice. *)
