(** End-to-end orchestration of the root-cause-analysis process (the
    paper's Figure 1): affected outputs -> hybrid slice -> community /
    centrality refinement -> candidate locations. *)

module MG := Rca_metagraph.Metagraph

type t = {
  slice : Slice.t;
  result : Refine.result;
}

val run :
  ?keep_module:(string -> bool) ->
  ?min_cluster:int ->
  ?m_sample:int ->
  ?min_community:int ->
  ?max_iterations:int ->
  ?stop_size:int ->
  ?gn_approx:int ->
  ?partitioner:Refine.partitioner ->
  ?choose_when_stuck:(int list -> int list -> int option) ->
  ?domains:int ->
  ?pool:Rca_graph.Pool.t ->
  ?static_dead:int list ->
  ?frozen:Frozen.t ->
  MG.t ->
  outputs:string list ->
  detect:Detector.t ->
  t
(** Slice the metagraph on the affected outputs and refine with the given
    detector.  Defaults follow the paper: residual clusters under 4 nodes
    dropped, 10 samples per community, one G-N split per iteration.
    [choose_when_stuck] (default none) is handed to {!Refine.refine} as
    the Section 6.3 narrowing fallback for non-refining 8b iterations —
    {!Refine.smallest_ancestry} partially applied to the metagraph is
    the usual choice.  [partitioner] (default {!Refine.Girvan_newman})
    selects the step-5 community detector — the approximate detectors
    ([Modularity_greedy], [Label_propagation]) may partition differently
    but are gated on the located-bugs oracle.  [domains] (default 1)
    parallelizes the refinement's community and centrality hot paths
    over a domain pool without changing results; [pool] shares an
    existing pool across runs instead (overrides [domains]).
    [static_dead] (default none) names metagraph nodes the static
    analyzer proved dead; their incident edges are pruned before slicing.
    Only nodes with no outgoing edges that are not slicing targets are
    actually dropped, which makes the pruning observationally safe: the
    slice, refinement and located bugs are identical with and without
    it.  Slicing and refinement share one {!Frozen.t} CSR of the
    metagraph and express static pruning, module restriction and every
    refinement removal as node-alive mask flips.  [frozen] supplies an
    existing snapshot of [mg]'s graph — a query server loads one from
    disk once and shares it across every request — instead of freezing
    here; the caller must guarantee it matches [mg]. *)

val describe_nodes : MG.t -> int list -> string list

val candidates : MG.t -> t -> (string * string * string * int) list
(** Final candidate locations as (unique name, module, subprogram,
    line). *)

val located_bugs : MG.t -> t -> bug_nodes:int list -> int list
(** Which of the given bug nodes were isolated in the final set or
    directly detected while sampling. *)

val pp : Format.formatter -> MG.t * t -> unit
