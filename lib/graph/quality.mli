(** Community-quality harness: modularity / conductance / intra-degree
    scoring of partitions, used to judge approximate detectors
    (modularity-greedy, sampled Girvan–Newman) where bitwise identity
    with the exact engine is the wrong yardstick. *)

type community_quality = {
  cq_size : int;
  cq_internal_arcs : int;  (** symmetrized arcs with both endpoints inside *)
  cq_cut_arcs : int;  (** symmetrized arcs leaving the community *)
  cq_conductance : float;  (** cut / min(vol, total-vol); 0 when isolated *)
  cq_intra_ratio : float;  (** internal / (internal + cut); 1 when isolated *)
}

type report = {
  q_nodes : int;
  q_arcs : int;
  q_communities : int;
  q_modularity : float;
  q_coverage : float;  (** fraction of arcs intra-community *)
  q_mean_conductance : float;
  q_max_conductance : float;
  q_min_intra_ratio : float;
  q_per_community : community_quality list;
}

val of_partition : Digraph.t -> Community.partition -> report
(** Score a total partition on the symmetrized view of the graph — the
    same view every partitioner in {!Community} runs on. *)

val of_communities : Digraph.t -> int list list -> report
(** Score a community list (node ids of the given graph); nodes not
    covered by any listed community are treated as singletons. *)

val summary_json : report -> Rca_obs.Jsonio.t
(** JSON object with the aggregate metrics (no per-community
    breakdown); deterministic field order. *)
