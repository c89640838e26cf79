(* Community-quality harness.

   Approximate community detectors (modularity-greedy agglomeration,
   source-sampled Girvan–Newman) cannot be judged by bitwise identity
   with the exact engine — a near-tied edge picked differently early on
   yields a different but equally good partition.  Following codeface's
   community_metrics approach, partitions are instead judged by the
   structural quality measures the literature agrees on:

   - modularity Q (Newman–Girvan): fraction of intra-community edges
     minus the expectation under the configuration model;
   - conductance per community: boundary arcs over the smaller side's
     volume — low conductance means a well-separated cut;
   - intra/inter-degree ratio per community: the fraction of a
     community's incident arcs that stay internal;
   - coverage: the fraction of all arcs that are intra-community.

   All measures are computed on the symmetrized view the partitioners
   themselves run on.  The end-to-end oracle — does refinement still
   locate the injected bug, and in how many iterations — lives in the
   bench/campaign layer; this module only scores partitions. *)

type community_quality = {
  cq_size : int;
  cq_internal_arcs : int;  (* arcs with both endpoints inside *)
  cq_cut_arcs : int;  (* arcs leaving the community *)
  cq_conductance : float;
  cq_intra_ratio : float;  (* internal / (internal + cut); 1.0 if isolated *)
}

type report = {
  q_nodes : int;
  q_arcs : int;  (* symmetrized arc count *)
  q_communities : int;
  q_modularity : float;
  q_coverage : float;
  q_mean_conductance : float;  (* over communities with nonzero volume *)
  q_max_conductance : float;
  q_min_intra_ratio : float;
  q_per_community : community_quality list;  (* largest community first *)
}

(* Score a labeled partition on (the symmetrized view of) [g].  The
   symmetrization mirrors what every partitioner in {!Community} does
   before splitting, so the report describes exactly the graph the
   partition was computed on. *)
let of_partition g (p : Community.partition) : report =
  let und = Digraph.to_undirected g in
  let n = Digraph.n und in
  let k = Community.community_count p in
  let internal = Array.make (max 1 k) 0 in
  let cut = Array.make (max 1 k) 0 in
  let vol = Array.make (max 1 k) 0 in
  let labels = p.Community.labels in
  Digraph.iter_edges
    (fun u v ->
      let cu = labels.(u) in
      vol.(cu) <- vol.(cu) + 1;
      if cu = labels.(v) then internal.(cu) <- internal.(cu) + 1
      else cut.(cu) <- cut.(cu) + 1)
    und;
  let m = Digraph.m und in
  let total_vol = Array.fold_left ( + ) 0 vol in
  let per =
    List.mapi
      (fun c members ->
        let volume = vol.(c) in
        let conductance =
          let denom = min volume (total_vol - volume) in
          if denom = 0 then 0.0 else float_of_int cut.(c) /. float_of_int denom
        in
        let intra_ratio =
          if volume = 0 then 1.0 else float_of_int internal.(c) /. float_of_int volume
        in
        {
          cq_size = List.length members;
          cq_internal_arcs = internal.(c);
          cq_cut_arcs = cut.(c);
          cq_conductance = conductance;
          cq_intra_ratio = intra_ratio;
        })
      p.Community.communities
  in
  let nonempty = List.filter (fun cq -> cq.cq_internal_arcs + cq.cq_cut_arcs > 0) per in
  let mean f = function
    | [] -> 0.0
    | xs -> List.fold_left (fun a x -> a +. f x) 0.0 xs /. float_of_int (List.length xs)
  in
  {
    q_nodes = n;
    q_arcs = m;
    q_communities = k;
    q_modularity = Community.modularity und p;
    q_coverage =
      (if m = 0 then 1.0
       else float_of_int (Array.fold_left ( + ) 0 internal) /. float_of_int m);
    q_mean_conductance = mean (fun cq -> cq.cq_conductance) nonempty;
    q_max_conductance =
      List.fold_left (fun a cq -> Float.max a cq.cq_conductance) 0.0 nonempty;
    q_min_intra_ratio =
      List.fold_left (fun a cq -> Float.min a cq.cq_intra_ratio) 1.0 nonempty;
    q_per_community = per;
  }

(* Score a community list (node-id lists) on the graph [g] they live in.
   Nodes of [g] not listed in any community (e.g. dropped sub-significant
   communities) each form their own singleton, so the labeling is total
   and volumes add up. *)
let of_communities g communities : report =
  let n = Digraph.n g in
  let labels = Array.make n (-1) in
  let next = ref 0 in
  List.iter
    (fun comm ->
      let c = !next in
      incr next;
      List.iter (fun v -> labels.(v) <- c) comm)
    communities;
  for v = 0 to n - 1 do
    if labels.(v) = -1 then begin
      labels.(v) <- !next;
      incr next
    end
  done;
  of_partition g (Community.partition_of_labels labels !next)

let summary_json r =
  let module J = Rca_obs.Jsonio in
  J.Obj
    [
      ("nodes", J.num r.q_nodes);
      ("arcs", J.num r.q_arcs);
      ("communities", J.num r.q_communities);
      ("modularity", J.Num r.q_modularity);
      ("coverage", J.Num r.q_coverage);
      ("mean_conductance", J.Num r.q_mean_conductance);
      ("max_conductance", J.Num r.q_max_conductance);
      ("min_intra_ratio", J.Num r.q_min_intra_ratio);
    ]
