(* Sampling detectors for the iterative refinement.

   A detector answers: of the instrumented nodes, which would show value
   differences between the ensemble and the experimental run?

   [reachability] is the paper's simulated sampling (Section 6): a node
   detects a difference iff a directed path leads from a known bug
   location to it.  Runtime-value detectors are built by the experiments
   layer from interpreter instrumentation; both must agree when the
   static graph models information flow faithfully (the claim the paper's
   Section 6.4 supports). *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

type t = int list -> int list
(* sampled node ids -> subset observed to differ *)

(* Simulated sampling: precompute descendants of the bug nodes in the full
   metagraph, then intersect. *)
let reachability (mg : MG.t) ~bug_nodes : t =
  let reachable = Hashtbl.create 256 in
  List.iter
    (fun v -> Hashtbl.replace reachable v ())
    (G.Traverse.descendants mg.MG.graph bug_nodes);
  fun sampled -> List.filter (Hashtbl.mem reachable) sampled

(* A detector from an explicit set of "differing" node ids, e.g. from a
   runtime sampling comparison. *)
let of_differing_set differing : t =
  let tbl = Hashtbl.create 256 in
  List.iter (fun v -> Hashtbl.replace tbl v ()) differing;
  fun sampled -> List.filter (Hashtbl.mem tbl) sampled

let never : t = fun _ -> []
