(* Differential + property-test lockdown of the domain-pool parallel
   centrality paths (Pool, Betweenness ?pool, Community ?pool,
   Centrality.eigenvector ?pool, Refine ?pool).

   Parallel reductions are a classic source of silent nondeterminism, so
   every parallel code path is tested three ways:
   - differentially against the sequential reference (floats within 1e-9,
     partitions identical), including the edge cases: empty graph,
     edgeless graph, disconnected graph, self-loops;
   - for determinism: the same parallel computation run twice, and run at
     different domain counts (2 vs 4), must agree bitwise — the fixed
     chunk structure plus chunk-ordered tree reduction guarantees it;
   - end to end: Refine.refine on a 4-way pool must reproduce the
     sequential final node set on the tiny model fixture.

   The masked slice/refine/pipeline engine is also checked here against
   the list-based oracle (Rca_oracle.List_engine). *)

open Rca_graph
module List_engine = Rca_oracle.List_engine

(* Spawn the pools once for the whole suite — the pool is designed to be
   reused, and these tests exercise exactly that. *)
let pool2 = Pool.create 2
let pool4 = Pool.create 4
let () = at_exit (fun () -> Pool.shutdown pool2; Pool.shutdown pool4)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- comparison helpers ------------------------------------------------------- *)

let close ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1.0 +. abs_float b)

let float_arrays_close ?eps a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (close ?eps x b.(i)) then ok := false) a;
      !ok)

(* Exact Brandes edge scores over the graph's CSR, sequential or pooled,
   per arc in arc-id order. *)
let edge_bc ?pool g =
  let csr = Csr.of_digraph g in
  let edge_bc = Array.make csr.Csr.m 0.0 in
  Betweenness.accumulate ?pool ~alive:(Bytes.make csr.Csr.m '\001') csr
    (Betweenness.make_scratch csr) (Array.init csr.Csr.n Fun.id) ~edge_bc;
  edge_bc

(* --- Pool unit tests ----------------------------------------------------------- *)

let pool_size_clamped () =
  Pool.with_pool 0 (fun p -> check_int "clamped to 1" 1 (Pool.size p));
  check_int "pool2" 2 (Pool.size pool2);
  check_int "pool4" 4 (Pool.size pool4)

let pool_run_chunks_in_order () =
  (* results must come back indexed by chunk id, whatever the schedule *)
  let r = Pool.run_chunks pool4 ~chunks:100 (fun c -> c * c) in
  check_int "100 chunks" 100 (Array.length r);
  Array.iteri (fun i v -> check_int "chunk result in slot" (i * i) v) r;
  Alcotest.(check (array int)) "zero chunks" [||] (Pool.run_chunks pool4 ~chunks:0 (fun c -> c))

let pool_run_chunks_more_chunks_than_domains () =
  (* all chunks are processed even when they outnumber the domains *)
  let total = Atomic.make 0 in
  ignore
    (Pool.run_chunks pool2 ~chunks:37 (fun c -> Atomic.fetch_and_add total c));
  check_int "sum of chunk ids" (37 * 36 / 2) (Atomic.get total)

let pool_propagates_exception () =
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "chunk 3") (fun () ->
      ignore
        (Pool.run_chunks pool4 ~chunks:8 (fun c ->
             if c = 3 then failwith "chunk 3" else c)));
  (* and the pool is still usable afterwards *)
  let r = Pool.run_chunks pool4 ~chunks:4 (fun c -> c + 1) in
  Alcotest.(check (array int)) "pool alive after exception" [| 1; 2; 3; 4 |] r

let pool_tree_reduce_deterministic () =
  Alcotest.(check (option int)) "empty" None (Pool.tree_reduce ( + ) [||]);
  Alcotest.(check (option int)) "singleton" (Some 7) (Pool.tree_reduce ( + ) [| 7 |]);
  Alcotest.(check (option int)) "sum" (Some 15) (Pool.tree_reduce ( + ) [| 1; 2; 4; 8 |]);
  (* the reduction shape is fixed: record the combination order via strings *)
  let shape =
    Pool.tree_reduce (fun a b -> "(" ^ a ^ b ^ ")") [| "a"; "b"; "c"; "d"; "e" |]
  in
  Alcotest.(check (option string)) "fixed shape" (Some "(((ab)(cd))e)") shape

let with_pool_shuts_down () =
  (* with_pool must shut the pool down even when the body raises *)
  Alcotest.check_raises "body exception propagates" (Failure "boom") (fun () ->
      Pool.with_pool 3 (fun p ->
          ignore (Pool.run_chunks p ~chunks:2 (fun c -> c));
          failwith "boom"))

(* --- edge-case unit tests (empty / edgeless / disconnected / self-loops) ------- *)

let empty_graph_all_paths () =
  let g = Digraph.create () in
  check_int "edge bc" 0 (Array.length (edge_bc ~pool:pool4 g));
  Alcotest.(check (array (float 1e-12))) "eigenvector" [||]
    (Centrality.eigenvector ~pool:pool4 g);
  let step = Community.girvan_newman_step ~pool:pool4 g in
  check_int "no communities" 0 (Community.community_count step.Community.partition)

(* The create_acc regression (hashtable Brandes, now the oracle's): an
   edgeless graph used to request a size-0 table (2 * m = 0); the size
   is now clamped. *)
let edgeless_graph_betweenness () =
  let g = Digraph.of_edges ~n:5 [] in
  check_int "m" 0 (Digraph.m g);
  let acc = Rca_oracle.Brandes.create_acc g in
  check_int "acc nodes" 5 (Array.length acc.Rca_oracle.Brandes.node_bc);
  check_int "acc edges empty" 0 (Hashtbl.length acc.Rca_oracle.Brandes.edge_bc);
  check_int "no edges scored" 0 (Array.length (edge_bc ~pool:pool2 g))

let disconnected_graph_partition () =
  (* two triangles plus an isolated node *)
  let g =
    Digraph.of_edges ~n:7 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  let seq = (Community.girvan_newman ~target:3 g).Community.partition in
  let par = (Community.girvan_newman ~target:3 ~pool:pool4 g).Community.partition in
  Alcotest.(check (array int)) "labels identical" seq.Community.labels par.Community.labels;
  check_bool "betweenness agrees" true
    (float_arrays_close (edge_bc g) (edge_bc ~pool:pool4 g))

let self_loop_graph_differential () =
  let g = Digraph.of_edges ~n:4 [ (0, 0); (0, 1); (1, 2); (2, 2); (2, 3); (3, 3) ] in
  check_bool "edge bc agrees" true (float_arrays_close (edge_bc g) (edge_bc ~pool:pool2 g))

(* --- QCheck differential properties -------------------------------------------- *)

(* Random digraphs via Gen.gnm, optionally decorated with self-loops. *)
let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* m = int_range 0 (n * 3) in
    let* seed = int_range 0 1_000_000 in
    let* loops = list_size (int_range 0 3) (int_range 0 (n - 1)) in
    return
      (let g = Gen.gnm ~seed ~n ~m in
       List.iter (fun v -> Digraph.add_edge g v v) loops;
       g))

let pools = [ ("2 domains", pool2); ("4 domains", pool4) ]

let prop_edge_betweenness_differential =
  QCheck2.Test.make ~name:"parallel edge betweenness = sequential (1e-9)" ~count:60
    graph_gen (fun g ->
      let seq = edge_bc g in
      List.for_all (fun (_, pool) -> float_arrays_close seq (edge_bc ~pool g)) pools)

let prop_girvan_newman_differential =
  QCheck2.Test.make ~name:"parallel Girvan-Newman partition = sequential" ~count:40
    graph_gen (fun g ->
      let seq = (Community.girvan_newman ~target:2 g).Community.partition in
      List.for_all
        (fun (_, pool) ->
          let par = (Community.girvan_newman ~target:2 ~pool g).Community.partition in
          seq.Community.labels = par.Community.labels
          && seq.Community.communities = par.Community.communities)
        pools)

let prop_girvan_newman_approx_differential =
  QCheck2.Test.make ~name:"parallel sampled G-N partition = sequential" ~count:40
    graph_gen (fun g ->
      let seq = Community.girvan_newman_step ~approx:8 g in
      List.for_all
        (fun (_, pool) ->
          let par = Community.girvan_newman_step ~approx:8 ~pool g in
          seq.Community.partition.Community.labels
            = par.Community.partition.Community.labels
          && seq.Community.removed_edges = par.Community.removed_edges)
        pools)

let prop_eigenvector_differential =
  QCheck2.Test.make ~name:"parallel eigenvector = sequential (1e-6)" ~count:60 graph_gen
    (fun g ->
      let seq = Centrality.eigenvector ~direction:Centrality.In g in
      List.for_all
        (fun (_, pool) ->
          float_arrays_close ~eps:1e-6 seq
            (Centrality.eigenvector ~direction:Centrality.In ~pool g))
        pools)

(* --- determinism regressions ---------------------------------------------------- *)

(* The same parallel computation, run twice and at different domain
   counts, must agree bitwise: work-stealing decides who computes a
   chunk, never what is computed or in which order it is merged. *)
let prop_parallel_bitwise_deterministic =
  QCheck2.Test.make ~name:"parallel runs bitwise-identical (repeat + 2 vs 4 domains)"
    ~count:40 graph_gen (fun g ->
      let eb pool = edge_bc ~pool g in
      let labels pool =
        (Community.girvan_newman ~target:2 ~pool g).Community.partition.Community.labels
      in
      eb pool4 = eb pool4
      && eb pool2 = eb pool4
      && labels pool4 = labels pool4
      && labels pool2 = labels pool4)

let gn_labels_stable_across_runs () =
  let g = Gen.two_clusters ~seed:11 ~size:10 ~p_intra:0.4 ~bridges:2 in
  let run pool = (Community.girvan_newman_step ~pool g).Community.partition.Community.labels in
  let first = run pool4 in
  for _ = 1 to 5 do
    Alcotest.(check (array int)) "labels bitwise stable" first (run pool4)
  done;
  Alcotest.(check (array int)) "2 domains = 4 domains" first (run pool2)

(* --- Refine end-to-end ------------------------------------------------------------ *)

module Fixture = Rca_experiments.Fixture

let tiny_fixture = lazy (Fixture.make Rca_synth.Config.tiny)

let refine_result ?gn_approx ?pool detect =
  let fixture = Lazy.force tiny_fixture in
  let mg = fixture.Fixture.mg in
  let slice = Rca_core.Slice.of_outputs mg [ "aqsnow"; "cloud" ] in
  Rca_core.Refine.refine ?gn_approx ?pool mg ~initial:slice.Rca_core.Slice.nodes
    ~detect ~stop_size:2 ~max_iterations:3

let refine_domains_matches_sequential () =
  let seq = refine_result Rca_core.Detector.never in
  let par = refine_result ~pool:pool4 Rca_core.Detector.never in
  Alcotest.(check (list int)) "final nodes" seq.Rca_core.Refine.final_nodes
    par.Rca_core.Refine.final_nodes;
  check_bool "same outcome" true
    (seq.Rca_core.Refine.outcome = par.Rca_core.Refine.outcome);
  Alcotest.(check (list (list int))) "same sampling trace"
    (List.map (fun it -> it.Rca_core.Refine.sampled) seq.Rca_core.Refine.iterations)
    (List.map (fun it -> it.Rca_core.Refine.sampled) par.Rca_core.Refine.iterations)

let refine_domains_matches_sequential_approx () =
  (* the sampled-betweenness configuration the paper-scale harness uses *)
  let seq = refine_result ~gn_approx:16 Rca_core.Detector.never in
  let par = refine_result ~gn_approx:16 ~pool:pool2 Rca_core.Detector.never in
  Alcotest.(check (list int)) "final nodes" seq.Rca_core.Refine.final_nodes
    par.Rca_core.Refine.final_nodes

let refine_domains_deterministic () =
  let a = refine_result ~pool:pool4 Rca_core.Detector.never in
  let b = refine_result ~pool:pool4 Rca_core.Detector.never in
  Alcotest.(check (list int)) "two parallel runs identical"
    a.Rca_core.Refine.final_nodes b.Rca_core.Refine.final_nodes

let pipeline_engines_identical () =
  (* End to end on the tiny model fixture: slice, every iteration, final
     nodes, outcome and located bugs agree between the masked engine and
     the list oracle — with and without a reachability detector, and
     with static-dead pruning (mask flips vs a materialized pruned
     metagraph copy) in play. *)
  let fixture = Lazy.force tiny_fixture in
  let mg = fixture.Fixture.mg in
  let dead =
    (* every sink node is a legitimate static-dead nomination *)
    List.filter
      (fun v -> Digraph.out_degree mg.Rca_metagraph.Metagraph.graph v = 0)
      (List.init (Rca_metagraph.Metagraph.n_nodes mg) Fun.id)
  in
  List.iter
    (fun (label, bug_nodes, static_dead) ->
      let detect =
        if bug_nodes = [] then Rca_core.Detector.never
        else Rca_core.Detector.reachability mg ~bug_nodes
      in
      let outputs = [ "aqsnow"; "cloud" ] in
      let a =
        List_engine.pipeline ~min_cluster:2 ~stop_size:2 ~max_iterations:3 ~static_dead mg
          ~outputs ~detect
      and b =
        Rca_core.Pipeline.run ~min_cluster:2 ~stop_size:2 ~max_iterations:3 ~static_dead mg
          ~outputs ~detect
      in
      Alcotest.(check (list int))
        (label ^ ": slice nodes")
        a.Rca_core.Pipeline.slice.Rca_core.Slice.nodes
        b.Rca_core.Pipeline.slice.Rca_core.Slice.nodes;
      Alcotest.(check (list int))
        (label ^ ": slice targets")
        a.Rca_core.Pipeline.slice.Rca_core.Slice.targets
        b.Rca_core.Pipeline.slice.Rca_core.Slice.targets;
      check_bool (label ^ ": full refine result identical") true
        (a.Rca_core.Pipeline.result = b.Rca_core.Pipeline.result);
      Alcotest.(check (list int))
        (label ^ ": located bugs")
        (Rca_core.Pipeline.located_bugs mg a ~bug_nodes)
        (Rca_core.Pipeline.located_bugs mg b ~bug_nodes))
    [
      ("never", [], []);
      ("reachability", [ 0 ], []);
      ("static-dead", [ 0 ], dead);
    ]

(* --- masked engine = list oracle -------------------------------------------------- *)

module MG = Rca_metagraph.Metagraph

(* A synthetic metagraph over a random digraph: enough metadata for
   Refine (module names, non-synthetic nodes) and for canonical-name
   slicing ("v<i>"), with none of the Fortran front end involved. *)
let synthetic_mg g =
  let n = Digraph.n g in
  let node_meta =
    Array.init n (fun i ->
        {
          MG.canonical = Printf.sprintf "v%d" i;
          unique = Printf.sprintf "v%d__m" i;
          module_ = (if i mod 3 = 0 then "phys" else "core");
          subprogram = "s";
          line = i;
          synthetic = false;
        })
  in
  let by_canonical = Hashtbl.create (max 1 n) in
  Array.iteri (fun i nd -> Hashtbl.replace by_canonical nd.MG.canonical [ i ]) node_meta;
  {
    MG.graph = g;
    node_meta;
    by_key = Hashtbl.create 1;
    by_canonical;
    io_map = Hashtbl.create 1;
    edge_origins = Hashtbl.create 1;
    stats =
      {
        MG.assignments_total = 0;
        parsed_primary = 0;
        parsed_relaxed = 0;
        parsed_scraped = 0;
        unhandled = 0;
      };
  }

(* Full-result equality between the masked engine and the list oracle:
   iteration sequences (nodes, edges, communities, sampling,
   detections), final node set and outcome — across random graphs,
   detectors, domain counts and exact vs sampled G-N. *)
let prop_refine_engines_identical =
  QCheck2.Test.make ~name:"masked refine = list refine (full result)" ~count:20
    graph_gen (fun g ->
      let mg = synthetic_mg g in
      let initial = List.init (Digraph.n g) Fun.id in
      let detectors =
        [
          Rca_core.Detector.never;
          Rca_core.Detector.of_differing_set
            (List.filter (fun v -> v mod 5 = 0) initial);
        ]
      in
      List.for_all
        (fun detect ->
          List.for_all
            (fun (domains, pool) ->
              List_engine.refine ?domains mg ~initial ~detect ~stop_size:2 ~max_iterations:4
              = Rca_core.Refine.refine ?pool mg ~initial ~detect ~stop_size:2
                  ~max_iterations:4)
            [ (None, None); (Some 2, Some pool2) ])
        detectors)

let prop_refine_engines_identical_approx =
  QCheck2.Test.make ~name:"masked refine = list refine (sampled G-N)" ~count:15
    graph_gen (fun g ->
      let mg = synthetic_mg g in
      let initial = List.init (Digraph.n g) Fun.id in
      let detect = Rca_core.Detector.never in
      List_engine.refine ~gn_approx:8 ~domains:2 mg ~initial ~detect ~stop_size:2
        ~max_iterations:3
      = Rca_core.Refine.refine ~gn_approx:8 ~pool:pool2 mg ~initial ~detect ~stop_size:2
          ~max_iterations:3)

(* Slicing on canonical names over the synthetic metagraph: masked
   engine and list oracle, with module restriction, exclusions and
   cluster dropping in play; and [contains] must agree with list
   membership (the node_set lockdown). *)
let prop_slice_engines_identical =
  QCheck2.Test.make ~name:"masked slice = list slice (+ contains lockdown)" ~count:30
    graph_gen (fun g ->
      let mg = synthetic_mg g in
      let n = Digraph.n g in
      let internals = [ "v0"; Printf.sprintf "v%d" (n - 1) ] in
      let exclude = List.filter (fun v -> v mod 7 = 3) (List.init n Fun.id) in
      let keep_module m = m <> "phys" in
      let a = List_engine.slice_of_internals ~keep_module ~min_cluster:2 ~exclude mg internals
      and b = Rca_core.Slice.of_internals ~keep_module ~min_cluster:2 ~exclude mg internals in
      a.Rca_core.Slice.nodes = b.Rca_core.Slice.nodes
      && a.Rca_core.Slice.targets = b.Rca_core.Slice.targets
      && List.for_all
           (fun v ->
             Rca_core.Slice.contains b v = List.mem v b.Rca_core.Slice.nodes
             && Rca_core.Slice.contains a v = Rca_core.Slice.contains b v)
           (List.init n Fun.id))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_edge_betweenness_differential;
      prop_girvan_newman_differential;
      prop_girvan_newman_approx_differential;
      prop_eigenvector_differential;
      prop_parallel_bitwise_deterministic;
    ]

let engine_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_refine_engines_identical;
      prop_refine_engines_identical_approx;
      prop_slice_engines_identical;
    ]

let () =
  Alcotest.run "rca_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "size clamped" `Quick pool_size_clamped;
          Alcotest.test_case "chunks in order" `Quick pool_run_chunks_in_order;
          Alcotest.test_case "chunks > domains" `Quick pool_run_chunks_more_chunks_than_domains;
          Alcotest.test_case "exception propagation" `Quick pool_propagates_exception;
          Alcotest.test_case "tree reduce" `Quick pool_tree_reduce_deterministic;
          Alcotest.test_case "with_pool cleanup" `Quick with_pool_shuts_down;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty graph" `Quick empty_graph_all_paths;
          Alcotest.test_case "edgeless graph (create_acc clamp)" `Quick
            edgeless_graph_betweenness;
          Alcotest.test_case "disconnected graph" `Quick disconnected_graph_partition;
          Alcotest.test_case "self loops" `Quick self_loop_graph_differential;
        ] );
      ("differential", qcheck_cases);
      ( "determinism",
        [
          Alcotest.test_case "G-N labels stable across runs" `Quick
            gn_labels_stable_across_runs;
        ] );
      ( "refine",
        [
          Alcotest.test_case "domains:4 = sequential" `Quick refine_domains_matches_sequential;
          Alcotest.test_case "domains:2 + approx = sequential" `Quick
            refine_domains_matches_sequential_approx;
          Alcotest.test_case "domains:4 deterministic" `Quick refine_domains_deterministic;
        ] );
      ( "engine",
        Alcotest.test_case "pipeline masked = list (incl. located bugs)" `Quick
          pipeline_engines_identical
        :: engine_qcheck_cases );
    ]
