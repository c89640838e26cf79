(* Hybrid program slicing (paper Section 5.1).

   Given the set of output variables most affected by a discrepancy, find
   every node lying on a shortest directed path that terminates on a node
   whose *canonical name* matches an affected internal variable, and
   induce the subgraph on the union.  Because every ancestor of a target
   lies on the shortest path from itself to the target, the union equals
   the ancestor set — a static backward slice, made "hybrid" by the fact
   that the graph was built from coverage-filtered source.

   The slice is computed on one frozen Frozen.t snapshot: module
   restriction, exclusions and residual-cluster dropping are node-alive
   mask flips.  The list-based reference (BFS over Digraph.pred plus
   induced-subgraph components) lives in test/oracle and must return
   identical slices. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type t = {
  mg : MG.t;  (* the graph the slice lives in *)
  nodes : int list;  (* slice node ids, ascending *)
  targets : int list;  (* the slicing criteria nodes *)
  node_set : (int, unit) Hashtbl.t;  (* hash set over [nodes]: O(1) membership *)
}

let size t = List.length t.nodes

(* Map affected *output* (file) names to internal canonical names via the
   recorded outfld label instrumentation. *)
let internal_names_of_outputs (mg : MG.t) outputs =
  List.concat_map (fun o -> MG.io_internal_names mg o) outputs |> List.sort_uniq compare

(* Target nodes: every node whose canonical name matches (paper: searching
   for the canonical name rather than the I/O call site enlarges the slice
   but guarantees the discrepancy source is inside it). *)
let target_nodes (mg : MG.t) internals =
  List.concat_map (fun n -> MG.nodes_with_canonical mg n) internals
  |> List.sort_uniq compare

(* Drop weakly connected residual clusters smaller than [min_cluster]
   (paper: "residual clusters of less than four nodes ... their removal
   does not affect the results"): components over the frozen CSR
   restricted to the slice nodes; small clusters disappear by never
   being listed — no induced subgraph, no id remapping. *)
let drop_small_clusters (fz : Frozen.t) nodes ~min_cluster =
  if min_cluster <= 1 then nodes
  else begin
    let alive = Frozen.mask_of_list fz nodes in
    Frozen.components fz ~alive
    |> List.concat_map (fun comp -> if List.length comp >= min_cluster then comp else [])
    |> List.sort compare
  end

(* Slice on internal canonical names.  Nodes failing the per-node keep
   predicate (the CAM-only restriction of Section 6, plus statically-dead
   exclusions) are dead in the mask: edges through them are cut, which
   produces the residual clusters the paper then drops. *)
let of_internals ?(keep_module = fun _ -> true) ?(min_cluster = 1) ?frozen ?(exclude = [])
    (mg : MG.t) internals : t =
  Rca_obs.Obs.span' "slice.of_internals"
    (fun t ->
      [
        ("internals", Rca_obs.Obs.Int (List.length internals));
        ("targets", Rca_obs.Obs.Int (List.length t.targets));
        ("nodes", Rca_obs.Obs.Int (List.length t.nodes));
      ])
  @@ fun () ->
  let targets = target_nodes mg internals in
  let n = G.Digraph.n mg.MG.graph in
  let alive =
    Bytes.init n (fun id -> if keep_module (MG.node mg id).MG.module_ then '\001' else '\000')
  in
  List.iter (fun id -> if id >= 0 && id < n then Bytes.set alive id '\000') exclude;
  let fz = match frozen with Some f -> f | None -> Frozen.freeze mg.MG.graph in
  let nodes = drop_small_clusters fz (Frozen.ancestors fz ~alive targets) ~min_cluster in
  let node_set = Hashtbl.create (2 * List.length nodes + 1) in
  List.iter (fun v -> Hashtbl.replace node_set v ()) nodes;
  { mg; nodes; targets = List.filter (Hashtbl.mem node_set) targets; node_set }

(* Slice on affected output (history) names, resolving the label -> internal
   mapping first. *)
let of_outputs ?keep_module ?min_cluster ?frozen ?exclude (mg : MG.t) outputs : t =
  of_internals ?keep_module ?min_cluster ?frozen ?exclude mg
    (internal_names_of_outputs mg outputs)

(* The induced subgraph of the slice, with the node correspondence. *)
let subgraph t = G.Digraph.induced_subgraph t.mg.MG.graph t.nodes

let contains t id = Hashtbl.mem t.node_set id

let node_names t =
  List.map (fun id -> (t.mg.MG.node_meta.(id)).MG.unique) t.nodes
