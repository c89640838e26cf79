(* Exact Girvan–Newman as the paper states it: a mutable symmetrized
   copy of the graph, full edge betweenness recomputed (hashtable
   Brandes) after every removal, O(n·m) each.  The component-incremental
   CSR engine (Rca_graph.Community) must reproduce its removal sequences
   and partitions exactly: bitwise sequentially, within the
   Betweenness.beats tie margin under a pool. *)

open Rca_graph

(* The fixed BFS source set: all nodes, or [approx] evenly spaced ones
   when the graph is larger — the production engine's choice. *)
let gn_sources ?approx n =
  match approx with
  | Some k when n > k && k > 0 ->
      let step = float_of_int n /. float_of_int k in
      Array.init k (fun i -> int_of_float (float_of_int i *. step))
  | _ -> Array.init n Fun.id

(* Highest-betweenness undirected edge of a symmetrized graph, each edge
   considered once at its first directed occurrence with both arc scores
   summed. *)
let max_betweenness_edge ?approx ?pool g =
  let acc = Brandes.compute_sources ?pool g (gn_sources ?approx (Digraph.n g)) in
  let score e = Option.value ~default:0.0 (Hashtbl.find_opt acc.Brandes.edge_bc e) in
  Betweenness.argmax_edge (fun f ->
      Digraph.iter_edges
        (fun u v ->
          if u <= v || not (Digraph.mem_edge g v u) then f u v (score (u, v) +. score (v, u)))
        g)

(* Remove top-betweenness edges until [stop] holds, the budget runs out
   or no edge is left; the partition is the working graph's weak
   components. *)
let remove_until ?approx ?pool ?(max_removals = 2000) ~stop g =
  let work = Digraph.to_undirected g in
  let initial = Components.count_weakly_connected work in
  let removed = ref [] in
  let rec loop budget =
    let ncomps = Components.count_weakly_connected work in
    if budget > 0 && not (stop ~initial ~ncomps ~arcs:(Digraph.m work)) then
      match max_betweenness_edge ?approx ?pool work with
      | None -> ()
      | Some (u, v, _) ->
          Digraph.remove_edge work u v;
          Digraph.remove_edge work v u;
          removed := (u, v) :: !removed;
          loop (budget - 1)
  in
  loop max_removals;
  { Community.partition = Community.of_components work; removed_edges = List.rev !removed }

let girvan_newman_step ?approx ?pool ?max_removals g =
  remove_until ?approx ?pool ?max_removals
    ~stop:(fun ~initial ~ncomps ~arcs:_ -> ncomps > initial)
    g

let girvan_newman ?approx ?pool ?max_removals ~target g =
  remove_until ?approx ?pool ?max_removals
    ~stop:(fun ~initial:_ ~ncomps ~arcs -> ncomps >= target || arcs = 0)
    g
