(* Algorithm 5.4 on node lists: the materializing reference the masked
   engine (Rca_core.Slice / Refine / Pipeline over one Frozen.t) is
   checked against.  Every ancestor computation rebuilds
   Digraph.induced_subgraph, static pruning builds a pruned metagraph
   copy, and residual clusters come from the induced subgraph's weak
   components.  Slices, iteration records, final node sets and outcomes
   must be identical between the two. *)

open Rca_graph
module MG = Rca_metagraph.Metagraph
module Core = Rca_core

(* Ancestors of [targets] in the graph restricted to nodes with
   [keep.(v)], by BFS over Digraph.pred; ascending. *)
let restricted_ancestors (mg : MG.t) ~keep targets =
  let g = mg.MG.graph in
  let n = Digraph.n g in
  let mark = Array.make n false in
  let q = Queue.create () in
  let visit v =
    if keep.(v) && not mark.(v) then begin
      mark.(v) <- true;
      Queue.add v q
    end
  in
  List.iter visit targets;
  while not (Queue.is_empty q) do
    List.iter visit (Digraph.pred g (Queue.pop q))
  done;
  List.filter (fun v -> mark.(v)) (List.init n Fun.id)

(* Drop weakly connected clusters of fewer than [min_cluster] nodes. *)
let drop_small_clusters (mg : MG.t) nodes ~min_cluster =
  if min_cluster <= 1 then nodes
  else begin
    let sub = Digraph.induced_subgraph mg.MG.graph nodes in
    Components.weakly_connected_components sub.Digraph.graph
    |> List.concat_map (fun comp ->
           if List.length comp >= min_cluster then List.map (Digraph.sub_to_parent sub) comp
           else [])
    |> List.sort compare
  end

(* Ancestors of [targets] with paths confined to [nodes]; ascending. *)
let ancestors_within (mg : MG.t) nodes targets =
  let sub = Digraph.induced_subgraph mg.MG.graph nodes in
  let sub_targets = List.filter_map (Digraph.sub_of_parent sub) targets in
  Traverse.ancestors sub.Digraph.graph sub_targets
  |> List.map (Digraph.sub_to_parent sub)
  |> List.sort compare

(* A copy of the metagraph without the edges incident to [dead]. *)
let without_nodes (mg : MG.t) ~dead =
  let is_dead = Hashtbl.create (List.length dead * 2 + 1) in
  List.iter (fun id -> Hashtbl.replace is_dead id ()) dead;
  let g = mg.MG.graph in
  let g' = Digraph.create ~size_hint:(Digraph.n g) () in
  if Digraph.n g > 0 then Digraph.ensure_node g' (Digraph.n g - 1);
  let origins = Hashtbl.create (Hashtbl.length mg.MG.edge_origins) in
  Digraph.iter_edges
    (fun u v ->
      if not (Hashtbl.mem is_dead u || Hashtbl.mem is_dead v) then begin
        Digraph.add_edge g' u v;
        Hashtbl.replace origins (u, v) (MG.edge_origins mg u v)
      end)
    g;
  { mg with MG.graph = g'; edge_origins = origins }

let slice_of_internals ?(keep_module = fun _ -> true) ?(min_cluster = 1) ?(exclude = [])
    (mg : MG.t) internals : Core.Slice.t =
  let targets = Core.Slice.target_nodes mg internals in
  let n = Digraph.n mg.MG.graph in
  let keep = Array.init n (fun id -> keep_module (MG.node mg id).MG.module_) in
  List.iter (fun id -> if id >= 0 && id < n then keep.(id) <- false) exclude;
  let nodes = drop_small_clusters mg (restricted_ancestors mg ~keep targets) ~min_cluster in
  let node_set = Hashtbl.create (2 * List.length nodes + 1) in
  List.iter (fun v -> Hashtbl.replace node_set v ()) nodes;
  { Core.Slice.mg; nodes; targets = List.filter (Hashtbl.mem node_set) targets; node_set }

let slice_of_outputs ?keep_module ?min_cluster ?exclude (mg : MG.t) outputs =
  slice_of_internals ?keep_module ?min_cluster ?exclude mg
    (Core.Slice.internal_names_of_outputs mg outputs)

(* Step 5 on the induced subgraph. *)
let communities_of (mg : MG.t) ?gn_approx ?(min_community = 3)
    ?(partitioner = Core.Refine.Girvan_newman) ?pool nodes =
  let sub = Digraph.induced_subgraph mg.MG.graph nodes in
  let g = sub.Digraph.graph in
  let partition =
    match partitioner with
    | Core.Refine.Girvan_newman ->
        (Community.girvan_newman_step ?approx:gn_approx ?pool g).Community.partition
    | Core.Refine.Modularity_greedy -> Community.modularity_greedy g
    | Core.Refine.Label_propagation -> Community.label_propagation g
  in
  Community.significant_communities ~min_size:min_community partition
  |> List.map (List.map (Digraph.sub_to_parent sub))

(* Step 6 on the induced subgraph: the top-m central non-synthetic
   nodes. *)
let central_nodes (mg : MG.t) ?(m_sample = 10) ?(measure = Core.Refine.Eigenvector_in) ?pool
    community =
  let sub = Digraph.induced_subgraph mg.MG.graph community in
  let cent = Core.Refine.centrality_scores ?pool measure sub.Digraph.graph in
  Centrality.top_k cent (Digraph.n sub.Digraph.graph)
  |> List.filter_map (fun (id, _) ->
         let parent = Digraph.sub_to_parent sub id in
         if (MG.node mg parent).MG.synthetic then None else Some parent)
  |> List.filteri (fun i _ -> i < m_sample)

let with_domains domains f =
  let k = Pool.recommended_size ~requested:domains in
  if k > 1 then Pool.with_pool k (fun p -> f (Some p)) else f None

let refine ?(m_sample = 10) ?(min_community = 3) ?(max_iterations = 10) ?(stop_size = 30)
    ?gn_approx ?partitioner ?measure ?choose_when_stuck ?(domains = 1) (mg : MG.t) ~initial
    ~(detect : Core.Detector.t) : Core.Refine.result =
  with_domains domains @@ fun pool ->
  let iterations = ref [] in
  let finish outcome final_nodes =
    { Core.Refine.iterations = List.rev !iterations; final_nodes; outcome }
  in
  let rec loop nodes budget =
    let sub = Digraph.induced_subgraph mg.MG.graph nodes in
    let n_nodes = Digraph.n sub.Digraph.graph and n_edges = Digraph.m sub.Digraph.graph in
    if n_nodes <= stop_size then finish Core.Refine.Converged nodes
    else if budget <= 0 then finish Core.Refine.Exhausted nodes
    else
      let communities =
        communities_of mg ?gn_approx ~min_community ?partitioner ?pool nodes
      in
      if communities = [] then finish Core.Refine.Fixed_point nodes
      else begin
        let sampled_by_community =
          List.map (central_nodes mg ~m_sample ?measure ?pool) communities
        in
        let sampled = List.sort_uniq compare (List.concat sampled_by_community) in
        let detected = List.sort_uniq compare (detect sampled) in
        let next =
          if detected = [] then begin
            (* 8a: drop everything that can influence the sampled nodes *)
            let infl = Hashtbl.create 256 in
            List.iter (fun v -> Hashtbl.replace infl v ()) (ancestors_within mg nodes sampled);
            List.filter (fun v -> not (Hashtbl.mem infl v)) nodes
          end
          else (* 8b: keep the detected nodes' ancestor closure *)
            ancestors_within mg nodes detected
        in
        iterations :=
          {
            Core.Refine.nodes;
            n_nodes;
            n_edges;
            communities;
            sampled_by_community;
            sampled;
            detected;
          }
          :: !iterations;
        let next =
          match choose_when_stuck with
          | Some choose when detected <> [] && List.length next = n_nodes -> (
              match choose nodes detected with
              | Some v -> ancestors_within mg nodes [ v ]
              | None -> next)
          | _ -> next
        in
        let n_next = List.length next in
        if n_next = 0 then finish Core.Refine.Emptied []
        else if n_next = n_nodes then finish Core.Refine.Fixed_point nodes
        else loop next (budget - 1)
      end
  in
  loop (List.sort_uniq compare initial) max_iterations

(* Static pruning materializes a pruned metagraph copy; slicing and
   refinement then run on it. *)
let pipeline ?keep_module ?(min_cluster = 4) ?m_sample ?min_community ?max_iterations ?stop_size
    ?gn_approx ?partitioner ?choose_when_stuck ?domains ?(static_dead = []) (mg : MG.t) ~outputs
    ~detect : Core.Pipeline.t =
  let mg =
    if static_dead = [] then mg
    else begin
      let targets =
        Core.Slice.target_nodes mg (Core.Slice.internal_names_of_outputs mg outputs)
      in
      let dead =
        List.filter
          (fun id ->
            id >= 0 && id < MG.n_nodes mg
            && Digraph.out_degree mg.MG.graph id = 0
            && not (List.mem id targets))
          static_dead
      in
      without_nodes mg ~dead
    end
  in
  let slice = slice_of_outputs ?keep_module ~min_cluster mg outputs in
  let result =
    refine ?m_sample ?min_community ?max_iterations ?stop_size ?gn_approx ?partitioner
      ?choose_when_stuck ?domains mg ~initial:slice.Core.Slice.nodes ~detect
  in
  { Core.Pipeline.slice; result }
