(* Brandes' betweenness on adjacency lists with a hashtable edge
   accumulator: the historical implementation the CSR kernel
   (Rca_graph.Betweenness) is checked against.  CSR rows list neighbours
   in adjacency-list order, so on the same sources the two accumulate
   the same floats in the same order and must agree bitwise, sequentially
   and under a pool (same chunk size, same tree reduction). *)

open Rca_graph

type accumulators = {
  node_bc : float array;
  edge_bc : (int * int, float) Hashtbl.t;
}

(* Clamped table size: an edgeless graph must not request a size-0
   table. *)
let create_acc g =
  {
    node_bc = Array.make (Digraph.n g) 0.0;
    edge_bc = Hashtbl.create (max 16 (2 * Digraph.m g));
  }

let edge_add tbl key v =
  let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (cur +. v)

(* One source's contribution: BFS forward pass building the shortest-path
   DAG, then dependency accumulation in reverse BFS order. *)
let accumulate_from g acc s =
  let n = Digraph.n g in
  let dist = Array.make n (-1) in
  let sigma = Array.make n 0.0 in
  let preds = Array.make n [] in
  let order = ref [] in
  let q = Queue.create () in
  dist.(s) <- 0;
  sigma.(s) <- 1.0;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun v ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end;
        if dist.(v) = dist.(u) + 1 then begin
          sigma.(v) <- sigma.(v) +. sigma.(u);
          preds.(v) <- u :: preds.(v)
        end)
      (Digraph.succ g u)
  done;
  let delta = Array.make n 0.0 in
  List.iter
    (fun w ->
      List.iter
        (fun u ->
          let c = sigma.(u) /. sigma.(w) *. (1.0 +. delta.(w)) in
          edge_add acc.edge_bc (u, w) c;
          delta.(u) <- delta.(u) +. c)
        preds.(w);
      if w <> s then acc.node_bc.(w) <- acc.node_bc.(w) +. delta.(w))
    !order

let merge_acc into src =
  Array.iteri (fun i v -> into.node_bc.(i) <- into.node_bc.(i) +. v) src.node_bc;
  Hashtbl.iter (fun k v -> edge_add into.edge_bc k v) src.edge_bc;
  into

(* Betweenness restricted to the given BFS sources.  Under a pool the
   sources split into [Betweenness.chunk_sources]-sized chunks merged by
   [Pool.tree_reduce], exactly as the CSR kernel does; single-chunk
   batches run inline. *)
let compute_sources ?pool g sources =
  let nsources = Array.length sources in
  let chunk = Betweenness.chunk_sources in
  match pool with
  | Some p when Pool.size p > 1 && nsources > chunk ->
      let chunks = (nsources + chunk - 1) / chunk in
      let partials =
        Pool.run_chunks p ~chunks (fun c ->
            let acc = create_acc g in
            for i = c * chunk to min nsources ((c + 1) * chunk) - 1 do
              accumulate_from g acc sources.(i)
            done;
            acc)
      in
      Option.value ~default:(create_acc g) (Pool.tree_reduce merge_acc partials)
  | _ ->
      let acc = create_acc g in
      Array.iter (fun s -> accumulate_from g acc s) sources;
      acc

let compute ?pool g = compute_sources ?pool g (Array.init (Digraph.n g) Fun.id)
