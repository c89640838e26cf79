(* Tests for the rca_graph library: structure, traversal, betweenness,
   community detection, centralities, quotient graphs and statistics. *)

open Rca_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ilist = Alcotest.(check (list int))

(* --- Digraph structure ---------------------------------------------------- *)

let basic_construction () =
  let g = Digraph.create () in
  let a = Digraph.add_node g in
  let b = Digraph.add_node g in
  let c = Digraph.add_node g in
  Digraph.add_edge g a b;
  Digraph.add_edge g b c;
  check_int "n" 3 (Digraph.n g);
  check_int "m" 2 (Digraph.m g);
  check_ilist "succ a" [ b ] (Digraph.succ g a);
  check_ilist "pred c" [ b ] (Digraph.pred g c);
  check_int "out_degree b" 1 (Digraph.out_degree g b);
  check_int "in_degree b" 1 (Digraph.in_degree g b)

let duplicate_edges_ignored () =
  let g = Digraph.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
  check_int "m" 1 (Digraph.m g);
  check_int "deg" 1 (Digraph.out_degree g 0)

let self_loop_allowed () =
  let g = Digraph.of_edges ~n:1 [ (0, 0) ] in
  check_int "m" 1 (Digraph.m g);
  check_bool "mem" true (Digraph.mem_edge g 0 0)

let remove_edge_works () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Digraph.remove_edge g 0 1;
  check_int "m" 1 (Digraph.m g);
  check_bool "gone" false (Digraph.mem_edge g 0 1);
  check_ilist "succ" [] (Digraph.succ g 0);
  check_ilist "pred" [] (Digraph.pred g 1);
  (* removing a non-existent edge is a no-op *)
  Digraph.remove_edge g 0 1;
  check_int "m still" 1 (Digraph.m g)

let ensure_node_grows () =
  let g = Digraph.create ~size_hint:1 () in
  Digraph.ensure_node g 100;
  check_int "n" 101 (Digraph.n g);
  check_ilist "empty succ" [] (Digraph.succ g 100)

let out_of_range_rejected () =
  let g = Digraph.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "succ oob" (Invalid_argument "Digraph.succ: node out of range")
    (fun () -> ignore (Digraph.succ g 5))

let reverse_transposes () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = Digraph.reverse g in
  check_bool "1->0" true (Digraph.mem_edge r 1 0);
  check_bool "2->1" true (Digraph.mem_edge r 2 1);
  check_bool "2->0" true (Digraph.mem_edge r 2 0);
  check_int "m preserved" (Digraph.m g) (Digraph.m r)

let to_undirected_symmetric () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let u = Digraph.to_undirected g in
  Digraph.iter_edges (fun a b -> check_bool "symmetric" true (Digraph.mem_edge u b a)) u;
  check_int "m doubled" 4 (Digraph.m u)

let copy_independent () =
  let g = Digraph.of_edges ~n:2 [ (0, 1) ] in
  let g' = Digraph.copy g in
  Digraph.add_edge g' 1 0;
  check_int "original untouched" 1 (Digraph.m g);
  check_int "copy grew" 2 (Digraph.m g')

let induced_subgraph_maps_ids () =
  let g = Digraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
  let sub = Digraph.induced_subgraph g [ 0; 1; 4 ] in
  check_int "sub n" 3 (Digraph.n sub.Digraph.graph);
  (* edges kept: 0->1 and 0->4 *)
  check_int "sub m" 2 (Digraph.m sub.Digraph.graph);
  check_int "to_parent" 4 (Digraph.sub_to_parent sub 2);
  Alcotest.(check (option int)) "of_parent" (Some 2) (Digraph.sub_of_parent sub 4);
  Alcotest.(check (option int)) "absent" None (Digraph.sub_of_parent sub 3)

let induced_subgraph_dedups () =
  let g = Digraph.of_edges ~n:3 [ (0, 1) ] in
  let sub = Digraph.induced_subgraph g [ 1; 1; 0; 0 ] in
  check_int "dedup n" 2 (Digraph.n sub.Digraph.graph)

(* --- Traverse -------------------------------------------------------------- *)

let path5 () = Digraph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]

let bfs_distances () =
  let g = path5 () in
  let d = Traverse.bfs_dist g [ 0 ] in
  Alcotest.(check (array int)) "dist" [| 0; 1; 2; 3; 4 |] d

let bfs_multi_source () =
  let g = path5 () in
  let d = Traverse.bfs_dist g [ 0; 3 ] in
  Alcotest.(check (array int)) "dist" [| 0; 1; 2; 0; 1 |] d

let ancestors_are_backward_slice () =
  (* 0->1->3, 2->3, 4 isolated: ancestors of 3 = {0,1,2,3} *)
  let g = Digraph.of_edges ~n:5 [ (0, 1); (1, 3); (2, 3) ] in
  check_ilist "ancestors" [ 0; 1; 2; 3 ] (Traverse.ancestors g [ 3 ]);
  check_ilist "descendants of 0" [ 0; 1; 3 ] (Traverse.descendants g [ 0 ])

let ancestors_union_of_targets () =
  let g = Digraph.of_edges ~n:6 [ (0, 1); (2, 3); (4, 5) ] in
  check_ilist "union" [ 0; 1; 2; 3 ] (Traverse.ancestors g [ 1; 3 ])

(* --- Components ------------------------------------------------------------ *)

let wcc_counts () =
  let g = Digraph.of_edges ~n:7 [ (0, 1); (1, 2); (3, 4); (5, 6) ] in
  check_int "three components" 3 (Components.count_weakly_connected g);
  let comps = Components.weakly_connected_components g in
  check_int "sizes" 7 (List.fold_left (fun a c -> a + List.length c) 0 comps)

let wcc_direction_ignored () =
  (* 0->1<-2 is weakly connected *)
  let g = Digraph.of_edges ~n:3 [ (0, 1); (2, 1) ] in
  check_int "one" 1 (Components.count_weakly_connected g)

(* --- Betweenness ------------------------------------------------------------ *)

(* Exact Brandes edge scores of a small digraph, straight from the CSR
   kernel, looked up by arc. *)
let edge_scores edges ~n =
  let csr = Csr.of_digraph (Digraph.of_edges ~n edges) in
  let edge_bc = Array.make csr.Csr.m 0.0 in
  Betweenness.accumulate ~alive:(Bytes.make csr.Csr.m '\001') csr
    (Betweenness.make_scratch csr) (Array.init n Fun.id) ~edge_bc;
  fun u v -> edge_bc.(Csr.arc_id csr u v)

let edge_betweenness_path () =
  let eb = edge_scores ~n:3 [ (0, 1); (1, 2) ] in
  (* edge (0,1) carries paths 0->1, 0->2; edge (1,2) carries 1->2, 0->2 *)
  Alcotest.(check (float 1e-9)) "eb 01" 2.0 (eb 0 1);
  Alcotest.(check (float 1e-9)) "eb 12" 2.0 (eb 1 2)

let betweenness_split_paths () =
  (* two equal shortest paths 0->1->3 / 0->2->3 share the 0->3 flow
     equally: each arc carries its own pair (1.0) plus half of 0->3 *)
  let eb = edge_scores ~n:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  List.iter
    (fun (u, v) -> Alcotest.(check (float 1e-9)) (Printf.sprintf "eb %d%d" u v) 1.5 (eb u v))
    [ (0, 1); (1, 3); (0, 2); (2, 3) ]

let max_edge_is_bridge () =
  let g = Gen.two_clusters ~seed:5 ~size:8 ~p_intra:0.5 ~bridges:1 in
  match (Community.girvan_newman_step g).Community.removed_edges with
  | [] -> Alcotest.fail "expected a removed edge"
  | (a, b) :: _ ->
      (* the first edge G-N removes is the bridge joining nodes 0 and 8 *)
      check_ilist "bridge" [ 0; 8 ] (List.sort compare [ a; b ])

(* --- Community --------------------------------------------------------------- *)

let gn_splits_two_clusters () =
  let g = Gen.two_clusters ~seed:11 ~size:10 ~p_intra:0.4 ~bridges:2 in
  let step = Community.girvan_newman_step g in
  let p = step.Community.partition in
  check_int "two communities" 2 (Community.community_count p);
  (* each cluster stays together *)
  let l = p.Community.labels in
  for v = 1 to 9 do
    check_int "cluster A" l.(0) l.(v);
    check_int "cluster B" l.(10) l.(10 + v)
  done;
  check_bool "clusters differ" true (l.(0) <> l.(10))

let gn_target_communities () =
  let g = Gen.two_clusters ~seed:3 ~size:6 ~p_intra:0.6 ~bridges:1 in
  let { Community.partition = p; removed_edges } = Community.girvan_newman ~target:2 g in
  check_bool "at least 2" true (Community.community_count p >= 2);
  (* the split required cutting at least the bridge *)
  check_bool "removed edges reported" true (removed_edges <> [])

let gn_on_disconnected_graph () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let p = Community.of_components g in
  check_int "already 2" 2 (Community.community_count p)

let modularity_of_perfect_split () =
  (* two disjoint triangles: modularity of the natural partition is 1/2 *)
  let g =
    Digraph.to_undirected
      (Digraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ])
  in
  let p = Community.of_components g in
  Alcotest.(check (float 1e-9)) "q" 0.5 (Community.modularity g p)

let modularity_trivial_partition_zero () =
  let g = Digraph.to_undirected (Gen.ring ~n:10) in
  let p = Community.of_components g in
  (* single community: Q = 1 - 1 = 0 *)
  Alcotest.(check (float 1e-9)) "q" 0.0 (Community.modularity g p)

let label_propagation_two_clusters () =
  let g = Gen.two_clusters ~seed:19 ~size:12 ~p_intra:0.7 ~bridges:1 in
  let p = Community.label_propagation g in
  (* label propagation should keep each dense cluster together *)
  let l = p.Community.labels in
  let same_a = ref true and same_b = ref true in
  for v = 1 to 11 do
    if l.(v) <> l.(0) then same_a := false;
    if l.(12 + v) <> l.(12) then same_b := false
  done;
  check_bool "cluster A coherent" true !same_a;
  check_bool "cluster B coherent" true !same_b

let significant_communities_filter () =
  let p =
    Community.
      { labels = [| 0; 0; 0; 1; 2 |]; communities = [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] }
  in
  check_int "only the 3-node one" 1 (List.length (Community.significant_communities p));
  check_int "min_size 1 keeps all" 3
    (List.length (Community.significant_communities ~min_size:1 p))

let partition_sorted_by_size () =
  let g = Digraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (4, 5) ] in
  let p = Community.of_components g in
  match p.Community.communities with
  | big :: rest ->
      check_int "largest first" 3 (List.length big);
      check_bool "rest smaller" true (List.for_all (fun c -> List.length c <= 3) rest)
  | [] -> Alcotest.fail "no communities"

(* --- Centrality --------------------------------------------------------------- *)

let star_in_centrality () =
  (* all spokes point at the hub: hub dominates in-centrality *)
  let g = Gen.star ~n:8 in
  let c = Centrality.eigenvector ~direction:Centrality.In g in
  for v = 1 to 7 do
    check_bool "hub >= spoke" true (c.(0) >= c.(v))
  done;
  let d = Centrality.degree ~direction:Centrality.In g in
  Alcotest.(check (float 1e-9)) "hub in-degree centrality" 1.0 d.(0)

let eigenvector_cycle_uniform () =
  let g = Gen.ring ~n:6 in
  let c = Centrality.eigenvector ~direction:Centrality.In g in
  for v = 1 to 5 do
    Alcotest.(check (float 1e-6)) "uniform on cycle" c.(0) c.(v)
  done

let eigenvector_directions_differ () =
  let g = Gen.star ~n:6 in
  let cin = Centrality.eigenvector ~direction:Centrality.In g in
  let cout = Centrality.eigenvector ~direction:Centrality.Out g in
  (* hub receives (In high); spokes send (Out high) *)
  check_bool "in: hub top" true (cin.(0) > cin.(1));
  check_bool "out: spokes top" true (cout.(1) > cout.(0))

let pagerank_sums_to_one () =
  let g = Gen.barabasi_albert ~seed:2 ~n:100 ~k:2 in
  let pr = Centrality.pagerank g in
  let s = Array.fold_left ( +. ) 0.0 pr in
  Alcotest.(check (float 1e-6)) "sum" 1.0 s

let pagerank_hub_highest () =
  let g = Gen.star ~n:20 in
  let pr = Centrality.pagerank g in
  let ranked = Centrality.rank pr in
  check_int "hub first" 0 ranked.(0)

let non_backtracking_cycle_uniform () =
  let g = Gen.ring ~n:8 in
  let c = Centrality.non_backtracking ~direction:Centrality.In g in
  for v = 1 to 7 do
    Alcotest.(check (float 1e-6)) "uniform" c.(0) c.(v)
  done

let non_backtracking_ignores_isolated () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0) ] in
  let c = Centrality.non_backtracking ~direction:Centrality.Out g in
  Alcotest.(check (float 1e-9)) "isolated node gets 0" 0.0 c.(3);
  check_bool "cycle nodes positive" true (c.(0) > 0.0)

let non_backtracking_pinned_ranking () =
  (* Regression pin: [non_backtracking] must feed each arc's score in
     Digraph adjacency order (the repo-wide deterministic float-summation
     convention).  An earlier version built [out_edge_ids] by cons and
     left it reversed, summing in the opposite order; these digits pin
     the adjacency-order result. *)
  let g = Gen.gnm ~seed:11 ~n:12 ~m:30 in
  let c = Centrality.non_backtracking ~direction:Centrality.In g in
  let expect =
    [
      (10, 0.804014817568); (8, 0.710244756493); (6, 0.554194344266);
      (5, 0.475764811967); (9, 0.46563322194); (2, 0.388397545985);
      (1, 0.347693409459); (7, 0.310808735054); (3, 0.261394831677);
      (11, 0.222147575121); (4, 0.200642210606); (0, 0.183194058565);
    ]
  in
  let got = Centrality.top_k c 12 in
  Alcotest.(check (list int)) "ranking order" (List.map fst expect) (List.map fst got);
  List.iter2
    (fun (v, want) (_, score) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "score of %d" v) want score)
    expect got

let rank_deterministic_ties () =
  let scores = [| 1.0; 3.0; 3.0; 0.5 |] in
  Alcotest.(check (array int)) "rank" [| 1; 2; 0; 3 |] (Centrality.rank scores)

let top_k_truncates () =
  let scores = [| 0.1; 0.9; 0.5 |] in
  let top = Centrality.top_k scores 2 in
  Alcotest.(check (list int)) "ids" [ 1; 2 ] (List.map fst top);
  check_int "k larger than n" 3 (List.length (Centrality.top_k scores 10))

(* --- Quotient ----------------------------------------------------------------- *)

let quotient_collapses_classes () =
  (* nodes 0,1 in class "a"; 2,3 in class "b"; edges within and across *)
  let g = Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 3); (2, 3) ] in
  let classify v = if v < 2 then "a" else "b" in
  let q = Quotient.make g classify in
  check_int "classes" 2 (Digraph.n q.Quotient.graph);
  (* intra-class edges (0,1) and (2,3) dropped; (1,2) and (0,3) collapse to one a->b edge *)
  check_int "edges" 1 (Digraph.m q.Quotient.graph);
  Alcotest.(check (array int)) "sizes" [| 2; 2 |] q.Quotient.class_sizes;
  Alcotest.(check (array string)) "names" [| "a"; "b" |] (Quotient.class_names q classify)

let quotient_no_self_loops () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  let q = Quotient.make g (fun v -> if v < 2 then "x" else "y") in
  check_bool "no self loop" false (Digraph.mem_edge q.Quotient.graph 0 0)

let quotient_of_identity_is_iso () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let q = Quotient.make g string_of_int in
  check_int "same n" 4 (Digraph.n q.Quotient.graph);
  check_int "same m" 2 (Digraph.m q.Quotient.graph)

(* --- Gstats -------------------------------------------------------------------- *)

let histogram_star () =
  let g = Gen.star ~n:5 in
  (* hub total degree 4, spokes 1 *)
  Alcotest.(check (list (pair int int)))
    "hist"
    [ (1, 4); (4, 1) ]
    (Gstats.degree_histogram g)

let ccdf_monotone () =
  let g = Gen.barabasi_albert ~seed:7 ~n:300 ~k:2 in
  let ccdf = Gstats.degree_ccdf g in
  let rec check_desc = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
        check_bool "monotone" true (p1 >= p2);
        check_desc rest
    | _ -> ()
  in
  check_desc ccdf;
  (match ccdf with
  | (_, p) :: _ -> Alcotest.(check (float 1e-9)) "starts at 1" 1.0 p
  | [] -> Alcotest.fail "empty ccdf")

let power_law_on_ba () =
  let g = Gen.barabasi_albert ~seed:13 ~n:3000 ~k:2 in
  match Gstats.power_law_alpha g with
  | None -> Alcotest.fail "expected alpha"
  | Some alpha -> check_bool "alpha plausible" true (alpha > 1.5 && alpha < 4.5)

let summary_fields () =
  let g = Gen.ring ~n:10 in
  let s = Gstats.summarize g in
  check_int "nodes" 10 s.Gstats.nodes;
  check_int "edges" 10 s.Gstats.edges;
  check_int "wcc" 1 s.Gstats.components;
  Alcotest.(check (float 1e-9)) "mean degree" 2.0 s.Gstats.mean_degree

let rank_series_sorted () =
  let series = Gstats.rank_series [| 0.5; -2.0; 1.0 |] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "sorted by |score|"
    [ (1, 2.0); (2, 1.0); (3, 0.5) ]
    series

(* --- Generators ------------------------------------------------------------------ *)

let gnm_respects_counts () =
  let g = Gen.gnm ~seed:1 ~n:50 ~m:200 in
  check_int "n" 50 (Digraph.n g);
  check_int "m" 200 (Digraph.m g)

let ba_connected () =
  let g = Gen.barabasi_albert ~seed:9 ~n:200 ~k:2 in
  check_int "connected" 1 (Components.count_weakly_connected g)

let two_clusters_shape () =
  let g = Gen.two_clusters ~seed:2 ~size:5 ~p_intra:0.5 ~bridges:1 in
  check_int "n" 10 (Digraph.n g);
  check_int "weakly connected" 1 (Components.count_weakly_connected g)

(* --- qcheck properties ------------------------------------------------------------ *)

let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* m = int_range 0 (n * 3) in
    let* seed = int_range 0 1_000_000 in
    return (Gen.gnm ~seed ~n ~m))

let prop_reverse_involutive =
  QCheck2.Test.make ~name:"reverse (reverse g) = g" ~count:100 graph_gen (fun g ->
      let rr = Digraph.reverse (Digraph.reverse g) in
      List.sort compare (Digraph.edges rr) = List.sort compare (Digraph.edges g))

let prop_ancestors_contain_targets =
  QCheck2.Test.make ~name:"ancestors contain targets" ~count:100 graph_gen (fun g ->
      let t = Digraph.n g / 2 in
      List.mem t (Traverse.ancestors g [ t ]))

let prop_ancestors_closed_under_pred =
  QCheck2.Test.make ~name:"ancestor set closed under predecessors" ~count:100 graph_gen
    (fun g ->
      let t = 0 in
      let anc = Traverse.ancestors g [ t ] in
      let in_anc = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace in_anc v ()) anc;
      List.for_all
        (fun v -> List.for_all (fun p -> Hashtbl.mem in_anc p) (Digraph.pred g v))
        anc)

let prop_subgraph_edges_subset =
  QCheck2.Test.make ~name:"induced subgraph preserves exactly internal edges" ~count:100
    graph_gen (fun g ->
      let keep = List.filter (fun v -> v mod 2 = 0) (Digraph.nodes g) in
      let sub = Digraph.induced_subgraph g keep in
      Digraph.fold_edges
        (fun u v ok ->
          ok
          && Digraph.mem_edge g (Digraph.sub_to_parent sub u) (Digraph.sub_to_parent sub v))
        sub.Digraph.graph true)

let prop_components_partition =
  QCheck2.Test.make ~name:"wcc forms a partition" ~count:100 graph_gen (fun g ->
      let comps = Components.weakly_connected_components g in
      let all = List.concat comps |> List.sort compare in
      all = Digraph.nodes g)

let prop_pagerank_sums_to_one =
  QCheck2.Test.make ~name:"pagerank sums to 1" ~count:50 graph_gen (fun g ->
      let pr = Centrality.pagerank g in
      abs_float (Array.fold_left ( +. ) 0.0 pr -. 1.0) < 1e-6)

let prop_eigenvector_nonnegative =
  QCheck2.Test.make ~name:"eigenvector centrality nonnegative" ~count:50 graph_gen (fun g ->
      let c = Centrality.eigenvector g in
      Array.for_all (fun x -> x >= -1e-12) c)

let prop_quotient_smaller =
  QCheck2.Test.make ~name:"quotient has <= nodes and no self loops" ~count:100 graph_gen
    (fun g ->
      let q = Quotient.make g (fun v -> string_of_int (v mod 5)) in
      let ok = ref (Digraph.n q.Quotient.graph <= Digraph.n g) in
      for v = 0 to Digraph.n q.Quotient.graph - 1 do
        if Digraph.mem_edge q.Quotient.graph v v then ok := false
      done;
      !ok)

let prop_gn_step_no_fewer_communities =
  QCheck2.Test.make ~name:"one G-N step never merges communities" ~count:25
    QCheck2.Gen.(
      let* n = int_range 4 16 in
      let* m = int_range n (2 * n) in
      let* seed = int_range 0 100_000 in
      return (Gen.gnm ~seed ~n ~m))
    (fun g ->
      let before = Components.count_weakly_connected g in
      let step = Community.girvan_newman_step g in
      Community.community_count step.Community.partition >= before)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reverse_involutive;
      prop_ancestors_contain_targets;
      prop_ancestors_closed_under_pred;
      prop_subgraph_edges_subset;
      prop_components_partition;
      prop_pagerank_sums_to_one;
      prop_eigenvector_nonnegative;
      prop_quotient_smaller;
      prop_gn_step_no_fewer_communities;
    ]

let () =
  Alcotest.run "rca_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "construction" `Quick basic_construction;
          Alcotest.test_case "duplicate edges" `Quick duplicate_edges_ignored;
          Alcotest.test_case "self loop" `Quick self_loop_allowed;
          Alcotest.test_case "remove edge" `Quick remove_edge_works;
          Alcotest.test_case "ensure_node" `Quick ensure_node_grows;
          Alcotest.test_case "out of range" `Quick out_of_range_rejected;
          Alcotest.test_case "reverse" `Quick reverse_transposes;
          Alcotest.test_case "to_undirected" `Quick to_undirected_symmetric;
          Alcotest.test_case "copy" `Quick copy_independent;
          Alcotest.test_case "induced subgraph" `Quick induced_subgraph_maps_ids;
          Alcotest.test_case "subgraph dedup" `Quick induced_subgraph_dedups;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs distances" `Quick bfs_distances;
          Alcotest.test_case "multi source" `Quick bfs_multi_source;
          Alcotest.test_case "ancestors" `Quick ancestors_are_backward_slice;
          Alcotest.test_case "ancestors union" `Quick ancestors_union_of_targets;
        ] );
      ( "components",
        [
          Alcotest.test_case "counts" `Quick wcc_counts;
          Alcotest.test_case "direction ignored" `Quick wcc_direction_ignored;
        ] );
      ( "betweenness",
        [
          Alcotest.test_case "edge path" `Quick edge_betweenness_path;
          Alcotest.test_case "split paths" `Quick betweenness_split_paths;
          Alcotest.test_case "max edge is bridge" `Quick max_edge_is_bridge;
        ] );
      ( "community",
        [
          Alcotest.test_case "G-N splits clusters" `Quick gn_splits_two_clusters;
          Alcotest.test_case "G-N target" `Quick gn_target_communities;
          Alcotest.test_case "disconnected" `Quick gn_on_disconnected_graph;
          Alcotest.test_case "modularity split" `Quick modularity_of_perfect_split;
          Alcotest.test_case "modularity trivial" `Quick modularity_trivial_partition_zero;
          Alcotest.test_case "label propagation" `Quick label_propagation_two_clusters;
          Alcotest.test_case "significant filter" `Quick significant_communities_filter;
          Alcotest.test_case "sorted by size" `Quick partition_sorted_by_size;
        ] );
      ( "centrality",
        [
          Alcotest.test_case "star in-centrality" `Quick star_in_centrality;
          Alcotest.test_case "cycle uniform" `Quick eigenvector_cycle_uniform;
          Alcotest.test_case "directions differ" `Quick eigenvector_directions_differ;
          Alcotest.test_case "pagerank sums" `Quick pagerank_sums_to_one;
          Alcotest.test_case "pagerank hub" `Quick pagerank_hub_highest;
          Alcotest.test_case "nbt cycle" `Quick non_backtracking_cycle_uniform;
          Alcotest.test_case "nbt isolated" `Quick non_backtracking_ignores_isolated;
          Alcotest.test_case "nbt pinned ranking" `Quick non_backtracking_pinned_ranking;
          Alcotest.test_case "rank ties" `Quick rank_deterministic_ties;
          Alcotest.test_case "top_k" `Quick top_k_truncates;
        ] );
      ( "quotient",
        [
          Alcotest.test_case "collapse" `Quick quotient_collapses_classes;
          Alcotest.test_case "no self loops" `Quick quotient_no_self_loops;
          Alcotest.test_case "identity classes" `Quick quotient_of_identity_is_iso;
        ] );
      ( "gstats",
        [
          Alcotest.test_case "histogram" `Quick histogram_star;
          Alcotest.test_case "ccdf" `Quick ccdf_monotone;
          Alcotest.test_case "power law" `Quick power_law_on_ba;
          Alcotest.test_case "summary" `Quick summary_fields;
          Alcotest.test_case "rank series" `Quick rank_series_sorted;
        ] );
      ( "generators",
        [
          Alcotest.test_case "gnm counts" `Quick gnm_respects_counts;
          Alcotest.test_case "ba connected" `Quick ba_connected;
          Alcotest.test_case "two clusters" `Quick two_clusters_shape;
        ] );
      ("properties", qcheck_cases);
    ]
