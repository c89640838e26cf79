(* Algorithm 5.4: the iterative refinement procedure.

   Each iteration:
   5. run one Girvan–Newman step on the undirected view of the current
      subgraph and keep communities of at least [min_community] nodes;
   6. compute eigenvector in-centrality inside each community and pick the
      [m_sample] most central nodes;
   7. "instrument" them: ask the detector which take different values
      between ensemble and experimental runs;
   8a. nothing differs -> drop every node lying on a path terminating on a
       sampled node;
   8b. something differs -> keep exactly the nodes on paths terminating on
       the differing ones;
   9. repeat until the subgraph is small enough for manual analysis, a
      fixed point is reached, or the iteration budget runs out.

   The detector abstraction makes the same engine serve the paper's
   simulated sampling (graph reachability from known bug locations) and
   genuine runtime sampling.

   Node-set bookkeeping runs on one frozen snapshot of the metagraph
   (Frozen.t): the 8a/8b removals are node-alive bitmask flips plus
   masked reverse BFS, never the Digraph.induced_subgraph rebuild per
   ancestor computation — at least three per iteration — that the paper
   calls the bottleneck of iterative refinement.  The community and
   centrality kernels run on plain CSRs cut from the frozen arrays
   (Csr.induced on the symmetric closure for step 5, on the transpose
   for step 6), slot for slot what a rebuild would hand them, so
   iteration sequences, partitions and outcomes are bit identical to the
   list-based reference in test/oracle (locked by differential tests and
   the `bench refine` oracle). *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type iteration = {
  nodes : int list;  (* subgraph at the start of the iteration *)
  n_nodes : int;
  n_edges : int;
  communities : int list list;  (* significant communities, metagraph ids *)
  sampled_by_community : int list list;  (* top-central ids per community *)
  sampled : int list;
  detected : int list;
}

type outcome =
  | Converged  (* subgraph at or below the manual-analysis size *)
  | Fixed_point  (* refinement stopped shrinking (paper Section 6.3) *)
  | Exhausted  (* iteration budget reached *)
  | Emptied  (* every node was excluded *)

type result = {
  iterations : iteration list;
  final_nodes : int list;
  outcome : outcome;
}

(* Community method for step 5: the paper uses one Girvan-Newman
   iteration; the alternatives its Section 5.2/6.3 remarks invite are
   deterministic modularity-greedy agglomeration and label propagation.
   Approximate detectors are judged by the quality harness
   (Rca_graph.Quality) and the end-to-end located_bugs oracle, not by
   bitwise identity with exact G-N. *)
type partitioner = Girvan_newman | Modularity_greedy | Label_propagation

let partitioner_string = function
  | Girvan_newman -> "gn"
  | Modularity_greedy -> "greedy"
  | Label_propagation -> "lp"

(* The one list every usage and error message names detectors from. *)
let partitioner_names =
  String.concat "|"
    (List.map partitioner_string [ Girvan_newman; Modularity_greedy; Label_propagation ])

(* One detector-name parser shared by every CLI surface (bin/rca_main
   and bench/main) so the flag vocabularies cannot drift. *)
let partitioner_of_string = function
  | "gn" | "girvan-newman" | "exact" -> Some Girvan_newman
  | "greedy" | "modularity-greedy" | "leiden" -> Some Modularity_greedy
  | "lp" | "label-propagation" -> Some Label_propagation
  | _ -> None

(* The node array the step-5/6 kernels are cut on: Csr.induced takes
   strictly ascending ids, and node [i] of the cut stands for
   [verts.(i)]. *)
let verts_of nodes = Array.of_list (List.sort_uniq compare nodes)

let communities_of ?gn_approx ?(min_community = 3) ?(partitioner = Girvan_newman) ?pool
    ~frozen nodes =
  let verts = verts_of nodes in
  let und = G.Csr.induced frozen.Frozen.und verts in
  let partition =
    match partitioner with
    | Girvan_newman ->
        (G.Community.girvan_newman_step_csr ?approx:gn_approx ?pool und).G.Community.partition
    | Modularity_greedy -> G.Community.modularity_greedy_csr und
    | Label_propagation -> G.Community.label_propagation_csr und
  in
  G.Community.significant_communities ~min_size:min_community partition
  |> List.map (List.map (fun i -> verts.(i)))

(* Node-importance measure for step 6.  The paper settles on eigenvector
   in-centrality; the alternatives support the ablation bench. *)
type centrality_measure = Eigenvector_in | Pagerank | In_degree | Non_backtracking_in

let centrality_scores ?pool measure g =
  match measure with
  | Eigenvector_in -> G.Centrality.eigenvector ~direction:G.Centrality.In ?pool g
  | Pagerank -> G.Centrality.pagerank g
  | In_degree -> G.Centrality.degree ~direction:G.Centrality.In g
  | Non_backtracking_in -> G.Centrality.non_backtracking ~direction:G.Centrality.In g

(* Top-m central nodes of one community (directed subgraph induced on the
   community's nodes).  Synthetic nodes (localized intrinsics, PRNG
   markers) cannot be instrumented at runtime and are skipped when picking
   sampling sites.  The paper's measure gathers over the transposed
   subgraph cut from the frozen rows; the ablation-only measures keep
   their digraph kernels on an induced rebuild. *)
let central_nodes (mg : MG.t) ?(m_sample = 10) ?(measure = Eigenvector_in) ?pool ~frozen
    community =
  let verts = verts_of community in
  let cent =
    match measure with
    | Eigenvector_in -> G.Centrality.eigenvector_csr ?pool (G.Csr.induced frozen.Frozen.rev verts)
    | _ ->
        centrality_scores measure
          (G.Digraph.induced_subgraph mg.MG.graph (Array.to_list verts)).G.Digraph.graph
  in
  G.Centrality.top_k cent (Array.length verts)
  |> List.filter_map (fun (id, _) ->
         let parent = verts.(id) in
         if (MG.node mg parent).MG.synthetic then None else Some parent)
  |> List.filteri (fun i _ -> i < m_sample)

(* Centrality ranking with scores for reporting. *)
let centrality_ranking (mg : MG.t) community =
  let sub = G.Digraph.induced_subgraph mg.MG.graph community in
  let cent = G.Centrality.eigenvector ~direction:G.Centrality.In sub.G.Digraph.graph in
  G.Centrality.top_k cent (List.length community)
  |> List.map (fun (id, s) -> (G.Digraph.sub_to_parent sub id, s))

(* The narrowing fallback the paper proposes for non-refining iterations
   (Section 6.3): "rank the differences obtained by sampling and further
   refine the subgraph based on the nodes with the greatest differences.
   Alternatively ... choose one node and induce a subgraph based on paths
   terminating on it."  [by_magnitude] ranks by an observed difference
   magnitude; [smallest_ancestry] picks the detected node whose in-slice
   ancestor closure is smallest (the maximally refining choice when all
   nodes appear equally affected). *)
let by_magnitude magnitude detected =
  match detected with
  | [] -> None
  | _ ->
      Some
        (List.fold_left
           (fun best v -> if magnitude v > magnitude best then v else best)
           (List.hd detected) (List.tl detected))

let smallest_ancestry ~frozen nodes detected =
  match detected with
  | [] -> None
  | _ ->
      (* one masked reverse BFS per candidate, no induced subgraph *)
      let alive = Frozen.mask_of_list frozen (List.sort_uniq compare nodes) in
      let size v =
        let dist = Frozen.ancestor_dist frozen ~alive [ v ] in
        let c = ref 0 in
        Array.iter (fun d -> if d <> G.Traverse.no_dist then incr c) dist;
        !c
      in
      Some
        (fst
           (List.fold_left
              (fun (bv, bs) v ->
                let s = size v in
                if s < bs then (v, s) else (bv, bs))
              (List.hd detected, size (List.hd detected))
              (List.tl detected)))

let outcome_string = function
  | Converged -> "converged"
  | Fixed_point -> "fixed-point"
  | Exhausted -> "exhausted"
  | Emptied -> "emptied"

let refine ?(m_sample = 10) ?(min_community = 3) ?(max_iterations = 10) ?(stop_size = 30)
    ?gn_approx ?partitioner ?measure ?choose_when_stuck ?pool ?frozen
    (mg : MG.t) ~initial ~(detect : Detector.t) : result =
  (* The caller's pool, reused by every Girvan–Newman betweenness
     recomputation and centrality sweep; a size-1 pool keeps the
     sequential code paths byte-for-byte. *)
  let pool = match pool with Some p when G.Pool.size p > 1 -> Some p | _ -> None in
  let run () =
  (* One frozen snapshot for the whole refinement (reused from the
     caller's when given): every 8a/8b ancestor sweep is a masked reverse
     BFS on it, and the community/centrality kernels run on subgraphs
     cut from its arrays. *)
  let frozen = match frozen with Some f -> f | None -> Frozen.freeze mg.MG.graph in
  let iterations = ref [] in
  let finish outcome final_nodes =
    { iterations = List.rev !iterations; final_nodes; outcome }
  in
  (* [alive] mirrors [nodes] as a bitmask; it is rebuilt from the next
     node list at each transition. *)
  let rec loop iter_no nodes alive budget =
    (* [nodes] is sorted-unique with every id valid, so the induced
       subgraph's node count is the list length and its edge count a
       masked row scan — the subgraph itself is never materialized
       here. *)
    let n_nodes = List.length nodes and n_edges = Frozen.alive_arcs frozen alive in
    if n_nodes <= stop_size then finish Converged nodes
    else if budget <= 0 then finish Exhausted nodes
    else begin
      let decision =
        Rca_obs.Obs.span' "refine.iteration"
          (fun d ->
            let common =
              [
                ("iteration", Rca_obs.Obs.Int iter_no);
                ("nodes", Rca_obs.Obs.Int n_nodes);
                ("edges", Rca_obs.Obs.Int n_edges);
              ]
            in
            match d with
            | `Stop (_, outcome) ->
                common @ [ ("outcome", Rca_obs.Obs.Str (outcome_string outcome)) ]
            | `Continue (_, next_count, it) ->
                common
                @ [
                    ("communities", Rca_obs.Obs.Int (List.length it.communities));
                    ("sampled", Rca_obs.Obs.Int (List.length it.sampled));
                    ("detected", Rca_obs.Obs.Int (List.length it.detected));
                    ("next_nodes", Rca_obs.Obs.Int next_count);
                  ])
        @@ fun () ->
        let communities =
          communities_of ?gn_approx ~min_community ?partitioner ?pool ~frozen nodes
        in
        if communities = [] then
          (* increasingly disconnected graph: no communities left to split
             (the paper's "bug not in any community" caveat) *)
          `Stop (nodes, Fixed_point)
        else begin
          let sampled_by_community =
            List.map (central_nodes mg ~m_sample ?measure ?pool ~frozen) communities
          in
          let sampled = List.sort_uniq compare (List.concat sampled_by_community) in
          let detected =
            Rca_obs.Obs.span "refine.detect" (fun () ->
                List.sort_uniq compare (detect sampled))
          in
          (* The nodes of the current set that [keep] accepts, and how
             many: the refinement checks run on that counter instead of
             O(n) list walks per iteration. *)
          let filter_nodes keep =
            let kept = ref 0 in
            let next =
              List.filter
                (fun v ->
                  let k = keep v in
                  if k then incr kept;
                  k)
                nodes
            in
            (next, !kept)
          in
          (* Membership in the ancestor closure of [targets] within the
             current node set: one masked reverse BFS. *)
          let in_closure targets =
            let dist = Frozen.ancestor_dist frozen ~alive targets in
            fun v -> dist.(v) <> G.Traverse.no_dist
          in
          let next, n_next =
            if detected = [] then
              (* 8a: discard everything that can influence the sampled nodes *)
              let influenced = in_closure sampled in
              filter_nodes (fun v -> not (influenced v))
            else
              (* 8b: keep exactly the detected nodes' ancestor closure *)
              filter_nodes (in_closure detected)
          in
          iterations :=
            { nodes; n_nodes; n_edges; communities; sampled_by_community; sampled; detected }
            :: !iterations;
          let next, n_next =
            (* non-refining 8b step: fall back to the single-node narrowing
               strategy when one is given *)
            match choose_when_stuck with
            | Some choose when detected <> [] && n_next = n_nodes -> (
                match choose nodes detected with
                | Some v -> filter_nodes (in_closure [ v ])
                | None -> (next, n_next))
            | _ -> (next, n_next)
          in
          if n_next = 0 then `Stop ([], Emptied)
          else if n_next = n_nodes then
            (* non-refining iteration: the induced subgraph equals the
               previous one (paper GOFFGRATCH second iteration) *)
            `Stop (nodes, Fixed_point)
          else `Continue (next, n_next, List.hd !iterations)
        end
      in
      match decision with
      | `Stop (final, outcome) -> finish outcome final
      | `Continue (next, _, _) ->
          loop (iter_no + 1) next (Frozen.mask_of_list frozen next) (budget - 1)
    end
  in
  let initial = List.sort_uniq compare initial in
  loop 1 initial (Frozen.mask_of_list frozen initial) max_iterations
  in
  Rca_obs.Obs.span' "refine.run"
    (fun r ->
      [
        ("domains", Rca_obs.Obs.Int (match pool with Some p -> G.Pool.size p | None -> 1));
        ("iterations", Rca_obs.Obs.Int (List.length r.iterations));
        ("final_nodes", Rca_obs.Obs.Int (List.length r.final_nodes));
        ("outcome", Rca_obs.Obs.Str (outcome_string r.outcome));
      ])
  @@ run
