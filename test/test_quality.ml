(* Tests for the approximate community detector and its quality
   harness: modularity-greedy validity/determinism/modularity floor, the
   masked CSR entry point against the digraph entry point, the Quality
   report on hand-checked graphs, and a located-bugs regression across
   detectors on the tiny fault campaign. *)

open Rca_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- quality harness on a hand-checked graph --------------------------------- *)

(* Two triangles joined by one bridge edge: the classic 2-community
   graph.  Symmetrized: 14 arcs, each triangle has 6 internal arcs,
   volume 7, and 1 cut arc; Q = 2 * (6/14 - (7/14)^2) = 5/14. *)
let two_triangles () =
  Digraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ]

let quality_two_triangles () =
  let g = two_triangles () in
  let labels = [| 0; 0; 0; 1; 1; 1 |] in
  let r = Quality.of_partition g (Community.partition_of_labels labels 2) in
  check_int "nodes" 6 r.Quality.q_nodes;
  check_int "symmetrized arcs" 14 r.Quality.q_arcs;
  check_int "communities" 2 r.Quality.q_communities;
  check_float "modularity" (5.0 /. 14.0) r.Quality.q_modularity;
  check_float "coverage" (12.0 /. 14.0) r.Quality.q_coverage;
  check_float "mean conductance" (1.0 /. 7.0) r.Quality.q_mean_conductance;
  check_float "max conductance" (1.0 /. 7.0) r.Quality.q_max_conductance;
  check_float "min intra ratio" (6.0 /. 7.0) r.Quality.q_min_intra_ratio;
  List.iter
    (fun cq ->
      check_int "size" 3 cq.Quality.cq_size;
      check_int "internal" 6 cq.Quality.cq_internal_arcs;
      check_int "cut" 1 cq.Quality.cq_cut_arcs)
    r.Quality.q_per_community

let quality_uncovered_nodes_are_singletons () =
  let g = two_triangles () in
  let r = Quality.of_communities g [ [ 0; 1; 2 ] ] in
  check_int "one listed + three singletons" 4 r.Quality.q_communities;
  check_float "coverage counts only the triangle" (6.0 /. 14.0) r.Quality.q_coverage

let quality_degenerate_graphs () =
  let empty = Quality.of_partition (Digraph.create ()) (Community.partition_of_labels [||] 0) in
  check_int "empty nodes" 0 empty.Quality.q_nodes;
  check_float "empty coverage" 1.0 empty.Quality.q_coverage;
  check_float "empty conductance" 0.0 empty.Quality.q_max_conductance;
  let edgeless =
    Quality.of_partition (Digraph.of_edges ~n:4 []) (Community.partition_of_labels [| 0; 0; 1; 1 |] 2)
  in
  check_int "edgeless arcs" 0 edgeless.Quality.q_arcs;
  check_float "edgeless coverage" 1.0 edgeless.Quality.q_coverage;
  check_float "edgeless modularity" 0.0 edgeless.Quality.q_modularity

let quality_summary_json_shape () =
  let g = two_triangles () in
  let r = Quality.of_communities g [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] in
  let module J = Rca_obs.Jsonio in
  let s = Quality.summary_json r in
  let int_member k = Option.bind (J.member k s) J.int_opt in
  check_bool "nodes" true (int_member "nodes" = Some 6);
  check_bool "arcs" true (int_member "arcs" = Some 14);
  check_bool "communities" true (int_member "communities" = Some 2);
  match J.member "modularity" s with
  | Some (J.Num q) -> Alcotest.(check (float 1e-6)) "modularity" 0.357143 q
  | _ -> Alcotest.fail "modularity missing"

(* --- greedy detector on known structure --------------------------------------- *)

let greedy_splits_two_triangles () =
  let g = two_triangles () in
  let p = Community.modularity_greedy g in
  check_int "two communities" 2 (Community.community_count p);
  let sorted = List.map (List.sort compare) p.Community.communities |> List.sort compare in
  check_bool "exactly the triangles" true (sorted = [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ])

let greedy_two_clusters_beats_trivial () =
  let g = Gen.two_clusters ~seed:11 ~size:12 ~p_intra:0.6 ~bridges:2 in
  let p = Community.modularity_greedy g in
  let q = (Quality.of_partition g p).Quality.q_modularity in
  check_bool "positive modularity on a planted 2-cluster graph" true (q > 0.2)

(* --- generators ----------------------------------------------------------------- *)

(* Same shape as test_csr_gn's: disjoint G(n,m) blobs plus self-loops,
   covering multi-component, edgeless, and self-loop-only graphs. *)
let graph_gen =
  QCheck2.Gen.(
    let* blobs = list_size (int_range 1 3) (pair (int_range 2 14) (int_range 0 28)) in
    let* seed = int_range 0 1_000_000 in
    let* loops = list_size (int_range 0 3) (int_range 0 10_000) in
    return
      (let g = Digraph.create () in
       let off = ref 0 in
       List.iteri
         (fun i (bn, bm) ->
           let b = Gen.gnm ~seed:(seed + (31 * i)) ~n:bn ~m:bm in
           Digraph.ensure_node g (!off + bn - 1);
           Digraph.iter_edges (fun u v -> Digraph.add_edge g (!off + u) (!off + v)) b;
           off := !off + bn)
         blobs;
       let n = Digraph.n g in
       List.iter (fun l -> Digraph.add_edge g (l mod n) (l mod n)) loops;
       g))

let masked_gen = QCheck2.Gen.(pair graph_gen (int_range 0 1_000_000))

let alive_subset g seed =
  let st = Random.State.make [| seed |] in
  List.filter (fun _ -> Random.State.bool st) (List.init (Digraph.n g) Fun.id)

(* --- greedy: validity, determinism, floor ---------------------------------------- *)

let prop_greedy_valid_partition =
  QCheck2.Test.make ~name:"greedy partition is a valid total partition" ~count:60
    graph_gen (fun g ->
      let n = Digraph.n g in
      let p = Community.modularity_greedy g in
      let k = Community.community_count p in
      Array.length p.Community.labels = n
      && List.length p.Community.communities = k
      (* every node appears exactly once, and where its label says *)
      && List.sort compare (List.concat p.Community.communities) = List.init n Fun.id
      && List.for_all2
           (fun c members -> List.for_all (fun v -> p.Community.labels.(v) = c) members)
           (List.init k Fun.id) p.Community.communities
      (* sizes are non-increasing (0 = largest) *)
      && fst
           (List.fold_left
              (fun (ok, prev) comm ->
                let s = List.length comm in
                (ok && s <= prev, s))
              (true, max_int) p.Community.communities))

let prop_greedy_deterministic =
  QCheck2.Test.make ~name:"greedy is a pure function of the graph" ~count:40 graph_gen
    (fun g ->
      let a = Community.modularity_greedy g in
      let b = Community.modularity_greedy g in
      a.Community.labels = b.Community.labels
      && a.Community.communities = b.Community.communities)

let prop_greedy_modularity_floor =
  QCheck2.Test.make ~name:"greedy modularity >= all-singleton modularity" ~count:40
    graph_gen (fun g ->
      let n = Digraph.n g in
      let p = Community.modularity_greedy g in
      let singletons = Community.partition_of_labels (Array.init n Fun.id) n in
      (Quality.of_partition g p).Quality.q_modularity
      >= (Quality.of_partition g singletons).Quality.q_modularity -. 1e-9)

let prop_greedy_masked_equals_induced =
  QCheck2.Test.make ~name:"masked greedy = greedy on the induced subgraph" ~count:40
    masked_gen (fun (g, seed) ->
      let verts = Array.of_list (alive_subset g seed) in
      let csr = Csr.of_digraph g in
      let und = Csr.undirected csr ~rev:(Csr.transpose csr) in
      let cut = Community.modularity_greedy_csr (Csr.induced und verts) in
      let sub = Digraph.induced_subgraph g (Array.to_list verts) in
      let reference = Community.modularity_greedy sub.Digraph.graph in
      List.map (List.map (fun i -> verts.(i))) cut.Community.communities
      = List.map (List.map (Digraph.sub_to_parent sub)) reference.Community.communities
      (* the whole closure partitions exactly like the digraph entry,
         whose symmetric CSR lists each row in another slot order *)
      && Community.modularity_greedy_csr und = Community.modularity_greedy g)

(* --- pool sizing ------------------------------------------------------------------ *)

let recommended_size_clamps () =
  let cores = Domain.recommended_domain_count () in
  check_int "requested 1" 1 (Pool.recommended_size ~requested:1);
  check_int "requested 0 floors at 1" 1 (Pool.recommended_size ~requested:0);
  check_int "large request clamps to cores" cores (Pool.recommended_size ~requested:1024);
  check_bool "never exceeds cores" true (Pool.recommended_size ~requested:4 <= cores)

(* --- campaign located-bugs regression across detectors ---------------------------- *)

let mini_params partitioner =
  let p = Rca_faults.Campaign.default_params Rca_synth.Config.tiny in
  {
    p with
    Rca_faults.Campaign.corpus =
      {
        p.Rca_faults.Campaign.corpus with
        Rca_faults.Corpus.families = [ Rca_faults.Fault.Prng; Rca_faults.Fault.Intent_guard ];
        Rca_faults.Corpus.max_per_family = 2;
      };
    Rca_faults.Campaign.partitioner;
  }

let located_list (t : Rca_faults.Campaign.t) =
  List.map
    (fun r ->
      ( r.Rca_faults.Campaign.fault.Rca_faults.Fault.id,
        match r.Rca_faults.Campaign.outcome with
        | Rca_faults.Campaign.Scored s -> Some s.Rca_faults.Campaign.s_located
        | Rca_faults.Campaign.Undetected -> None
        | Rca_faults.Campaign.Crashed _ -> None ))
    t.Rca_faults.Campaign.results

let campaign_located_bugs_detector_invariant () =
  let open Rca_core.Refine in
  let exact = Rca_faults.Campaign.run (mini_params Girvan_newman) in
  check_bool "non-empty corpus" true (exact.Rca_faults.Campaign.results <> []);
  check_int "no crashes" 0 exact.Rca_faults.Campaign.overall.Rca_faults.Campaign.fs_crashed;
  let reference = located_list exact in
  List.iter
    (fun (name, partitioner) ->
      let t = Rca_faults.Campaign.run (mini_params partitioner) in
      check_int (name ^ ": no crashes") 0
        t.Rca_faults.Campaign.overall.Rca_faults.Campaign.fs_crashed;
      check_bool (name ^ ": located_bugs identical to exact G-N") true
        (located_list t = reference))
    [ ("greedy", Modularity_greedy) ]

let campaign_quality_reports_present () =
  let t = Rca_faults.Campaign.run (mini_params Rca_core.Refine.Modularity_greedy) in
  let qualities =
    List.filter_map
      (fun r ->
        match r.Rca_faults.Campaign.outcome with
        | Rca_faults.Campaign.Scored s -> s.Rca_faults.Campaign.s_quality
        | _ -> None)
      t.Rca_faults.Campaign.results
  in
  check_bool "at least one scored fault has a quality report" true (qualities <> []);
  List.iter
    (fun q ->
      check_bool "coverage in [0,1]" true
        (q.Quality.q_coverage >= 0.0 && q.Quality.q_coverage <= 1.0);
      check_bool "modularity in [-1,1]" true
        (q.Quality.q_modularity >= -1.0 && q.Quality.q_modularity <= 1.0);
      check_bool "communities positive" true (q.Quality.q_communities > 0))
    qualities

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_greedy_valid_partition;
      prop_greedy_deterministic;
      prop_greedy_modularity_floor;
      prop_greedy_masked_equals_induced;
    ]

let () =
  Alcotest.run "rca_quality"
    [
      ( "harness",
        [
          Alcotest.test_case "two triangles" `Quick quality_two_triangles;
          Alcotest.test_case "uncovered = singletons" `Quick quality_uncovered_nodes_are_singletons;
          Alcotest.test_case "degenerate graphs" `Quick quality_degenerate_graphs;
          Alcotest.test_case "summary json" `Quick quality_summary_json_shape;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "splits two triangles" `Quick greedy_splits_two_triangles;
          Alcotest.test_case "planted clusters" `Quick greedy_two_clusters_beats_trivial;
        ] );
      ("pool", [ Alcotest.test_case "recommended_size clamps" `Quick recommended_size_clamps ]);
      ( "campaign",
        [
          Alcotest.test_case "located bugs detector-invariant" `Slow
            campaign_located_bugs_detector_invariant;
          Alcotest.test_case "quality reports present" `Slow campaign_quality_reports_present;
        ] );
      ("properties", qcheck_cases);
    ]
