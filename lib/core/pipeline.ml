(* End-to-end orchestration of the root-cause-analysis process (the
   paper's Figure 1): affected outputs -> hybrid slice -> community /
   centrality refinement -> candidate locations, plus the reporting
   helpers the experiments and CLI print. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type t = {
  slice : Slice.t;
  result : Refine.result;
}

(* Run the static pipeline: slice the metagraph on the affected outputs
   and refine with the given detector.

   The metagraph is frozen into one Frozen.t CSR here (or the caller's
   snapshot is reused) and shared by the slice and every refinement
   iteration; static pruning, module restriction, residual-cluster
   dropping and the 8a/8b removals are all node-alive mask flips over
   that one snapshot.  The materializing list path (pruned metagraph
   copy, induced-subgraph rebuilds) is the test/oracle reference. *)
let run ?keep_module ?(min_cluster = 4) ?m_sample ?min_community ?max_iterations ?stop_size
    ?gn_approx ?partitioner ?choose_when_stuck ?(domains = 1) ?pool ?(static_dead = []) ?frozen
    (mg : MG.t) ~outputs ~detect : t =
  Rca_obs.Obs.span' "pipeline.run"
    (fun t ->
      [
        ("outputs", Rca_obs.Obs.Int (List.length outputs));
        ("slice_nodes", Rca_obs.Obs.Int (Slice.size t.slice));
        ("iterations", Rca_obs.Obs.Int (List.length t.result.Refine.iterations));
        ("outcome", Rca_obs.Obs.Str (Refine.outcome_string t.result.Refine.outcome));
      ])
  @@ fun () ->
  (* the caller's snapshot (e.g. a loaded one) is shared across runs *)
  let frozen = match frozen with Some fz -> fz | None -> Frozen.freeze mg.MG.graph in
  (* Static dead-node pruning: drop edges incident to statically-dead
     nodes before slicing.  Observational safety is enforced here, not
     assumed: a nominated node is only pruned when it has no outgoing
     edges (so it cannot lie on any path into the backward closure) and
     is not itself a slicing target.  Pruning just kills the nodes in
     the slice's alive mask. *)
  let exclude =
    if static_dead = [] then []
    else
      Rca_obs.Obs.span' "pipeline.static_prune"
        (fun dead ->
          let before = G.Digraph.m mg.MG.graph in
          [
            ("edges_before", Rca_obs.Obs.Int before);
            ( "edges_after",
              Rca_obs.Obs.Int
                (before
                - List.fold_left (fun acc d -> acc + G.Csr.out_degree frozen.Frozen.rev d) 0 dead)
            );
          ])
      @@ fun () ->
      let targets =
        Slice.target_nodes mg (Slice.internal_names_of_outputs mg outputs)
      in
      let is_target = Hashtbl.create 64 in
      List.iter (fun id -> Hashtbl.replace is_target id ()) targets;
      let dead =
        List.filter
          (fun id ->
            id >= 0 && id < MG.n_nodes mg
            && G.Digraph.out_degree mg.MG.graph id = 0
            && not (Hashtbl.mem is_target id))
          static_dead
      in
      Rca_obs.Obs.incr ~by:(List.length dead) "pipeline.static_dead_pruned";
      Rca_obs.Obs.incr ~by:(List.length static_dead - List.length dead)
        "pipeline.static_dead_rejected";
      dead
  in
  let slice = Slice.of_outputs ?keep_module ~min_cluster ~frozen ~exclude mg outputs in
  let refine pool =
    Refine.refine ?m_sample ?min_community ?max_iterations ?stop_size ?gn_approx
      ?partitioner ?choose_when_stuck ?pool ~frozen mg ~initial:slice.Slice.nodes ~detect
  in
  (* One pool for the whole refinement: spawned once, reused by every
     Girvan–Newman betweenness recomputation and centrality sweep — or
     shared across many runs when the caller passes [?pool] (the
     campaign runner does, one pool for the whole fault corpus).  A
     [domains] request is clamped to the machine's usable parallelism. *)
  let result =
    match pool with
    | Some _ -> refine pool
    | None ->
        let k = G.Pool.recommended_size ~requested:domains in
        if k > 1 then G.Pool.with_pool k (fun p -> refine (Some p)) else refine None
  in
  { slice; result }

let name_of mg id = (MG.node mg id).MG.unique

let describe_nodes mg ids = List.map (name_of mg) ids

(* Candidate bug locations after refinement: the final node set, described
   as (unique name, module, subprogram, line). *)
let candidates (mg : MG.t) t =
  List.map
    (fun id ->
      let n = MG.node mg id in
      (n.MG.unique, n.MG.module_, n.MG.subprogram, n.MG.line))
    t.result.Refine.final_nodes

(* Did the refinement isolate (or directly sample) any of the given bug
   nodes? *)
let located_bugs (_mg : MG.t) t ~bug_nodes =
  (* Both membership tests are hash-set lookups: [List.mem] over the
     concatenation of every iteration's detections made this quadratic
     in refinements x bug nodes.  [bug_nodes] order is preserved. *)
  let final = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace final v ()) t.result.Refine.final_nodes;
  let detected = Hashtbl.create 64 in
  List.iter
    (fun it -> List.iter (fun v -> Hashtbl.replace detected v ()) it.Refine.detected)
    t.result.Refine.iterations;
  List.filter (fun b -> Hashtbl.mem final b || Hashtbl.mem detected b) bug_nodes

let pp_iteration mg ppf (i, (it : Refine.iteration)) =
  Format.fprintf ppf "iteration %d: %d nodes, %d edges, %d communities (sizes %s)@." i
    it.Refine.n_nodes it.Refine.n_edges
    (List.length it.Refine.communities)
    (String.concat ", "
       (List.map (fun c -> string_of_int (List.length c)) it.Refine.communities));
  List.iteri
    (fun k sampled ->
      Format.fprintf ppf "  community %d sampling: %s@." k
        (String.concat ", " (describe_nodes mg sampled)))
    it.Refine.sampled_by_community;
  Format.fprintf ppf "  detected: %s@."
    (if it.Refine.detected = [] then "(none)"
     else String.concat ", " (describe_nodes mg it.Refine.detected))

let pp ppf (mg, t) =
  Format.fprintf ppf "slice: %d nodes (%d targets)@." (Slice.size t.slice)
    (List.length t.slice.Slice.targets);
  List.iteri (fun i it -> pp_iteration mg ppf (i + 1, it)) t.result.Refine.iterations;
  Format.fprintf ppf "outcome: %s with %d candidate nodes@."
    (Refine.outcome_string t.result.Refine.outcome)
    (List.length t.result.Refine.final_nodes)
