(* Differential lockdown of the CSR graph kernel and the
   component-incremental Girvan-Newman engine.

   The incremental engine must be *indistinguishable* from the
   rca_oracle reference (mutable digraph + full recomputation per
   removal): identical removal
   sequences and identical partitions, on every graph shape the
   generators can produce — multi-component, self-loops, edgeless,
   empty — sequentially and under 2/4-domain pools, exact and
   source-sampled.  The CSR Brandes kernel is held to a stronger
   standard: bitwise equality with the oracle's hashtable Brandes,
   sequentially and at every pool size (same chunk structure, same tree
   reduction, same per-edge summation order).  The eigenvector gather is
   likewise checked bitwise against an inline copy of the historical
   edge-scatter sweep. *)

open Rca_graph
module Brandes = Rca_oracle.Brandes
module Gn_ref = Rca_oracle.Gn

let pool2 = Pool.create 2
let pool4 = Pool.create 4
let () = at_exit (fun () -> Pool.shutdown pool2; Pool.shutdown pool4)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- comparison helpers ------------------------------------------------------ *)

(* Nonzero-score edge assoc, sorted by key: the canonical form shared by
   the hashtable path (which only stores touched arcs) and the CSR path
   (dense array, zeros skipped). *)
let table_assoc tbl =
  Hashtbl.fold (fun k v acc -> if v <> 0.0 then (k, v) :: acc else acc) tbl []
  |> List.sort compare

(* The CSR kernel's edge scores from [sources] (default: every node)
   over [alive] (default: every arc), indexed by arc id. *)
let kernel_edge_bc ?pool ?alive ?sources (csr : Csr.t) =
  let alive = Option.value alive ~default:(Bytes.make csr.Csr.m '\001') in
  let sources = Option.value sources ~default:(Array.init csr.Csr.n Fun.id) in
  let edge_bc = Array.make csr.Csr.m 0.0 in
  Betweenness.accumulate ?pool ~alive csr (Betweenness.make_scratch csr) sources ~edge_bc;
  edge_bc

let csr_edge_assoc csr edge_bc =
  let out = ref [] in
  Csr.iter_arcs
    (fun i u v ->
      let s = edge_bc.(i) in
      if s <> 0.0 then out := ((u, v), s) :: !out)
    csr;
  List.sort compare !out

let same_step (a : Community.gn_step) (b : Community.gn_step) =
  a.Community.removed_edges = b.Community.removed_edges
  && a.Community.partition.Community.labels = b.Community.partition.Community.labels
  && a.Community.partition.Community.communities
     = b.Community.partition.Community.communities

(* --- CSR construction unit tests --------------------------------------------- *)

let fixture_graph () =
  (* reciprocal pair, a self-loop, an isolated node, parallel-free *)
  let g = Digraph.of_edges ~n:6 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 3); (0, 2) ] in
  g

let csr_mirrors_digraph () =
  let g = fixture_graph () in
  let csr = Csr.of_digraph g in
  check_int "n" (Digraph.n g) csr.Csr.n;
  check_int "m" (Digraph.m g) csr.Csr.m;
  (* arc ids are exactly Digraph.iter_edges order *)
  let edges = ref [] in
  Digraph.iter_edges (fun u v -> edges := (u, v) :: !edges) g;
  let edges = Array.of_list (List.rev !edges) in
  check_int "arc count" (Array.length edges) csr.Csr.m;
  Array.iteri
    (fun i (u, v) ->
      check_int "src slot" u csr.Csr.src.(i);
      check_int "col slot" v csr.Csr.col.(i))
    edges;
  (* iter_arcs presents the same sequence *)
  let seen = ref [] in
  Csr.iter_arcs (fun i u v -> seen := (i, u, v) :: !seen) csr;
  let seen = List.rev !seen in
  List.iteri
    (fun i (id, u, v) ->
      check_int "iter id" i id;
      let eu, ev = edges.(i) in
      check_int "iter src" eu u;
      check_int "iter col" ev v)
    seen;
  (* row offsets are consistent with out-degrees and slot sources *)
  check_int "row length" (csr.Csr.n + 1) (Array.length csr.Csr.row);
  check_int "row end" csr.Csr.m csr.Csr.row.(csr.Csr.n);
  Digraph.iter_nodes
    (fun u ->
      check_int "row width = out degree"
        (Digraph.out_degree g u)
        (csr.Csr.row.(u + 1) - csr.Csr.row.(u));
      check_int "Csr.out_degree" (Digraph.out_degree g u) (Csr.out_degree csr u);
      for i = csr.Csr.row.(u) to csr.Csr.row.(u + 1) - 1 do
        check_int "slot belongs to its row" u csr.Csr.src.(i)
      done)
    g;
  (* rows list successors in adjacency-list order *)
  Digraph.iter_nodes
    (fun u ->
      let csr_row =
        Array.to_list (Array.sub csr.Csr.col csr.Csr.row.(u)
                         (csr.Csr.row.(u + 1) - csr.Csr.row.(u)))
      in
      Alcotest.(check (list int)) "row = succ list" (Digraph.succ g u) csr_row)
    g

let csr_rev_and_arc_id () =
  let g = fixture_graph () in
  let csr = Csr.of_digraph g in
  Csr.iter_arcs
    (fun i u v ->
      check_int "arc_id finds each arc" i (Csr.arc_id csr u v);
      let r = csr.Csr.rev.(i) in
      if u = v then check_int "self-loop is its own reverse" i r
      else if Digraph.mem_edge g v u then begin
        check_bool "reverse present" true (r >= 0);
        check_int "rev src" v csr.Csr.src.(r);
        check_int "rev col" u csr.Csr.col.(r);
        check_int "rev is involutive" i csr.Csr.rev.(r)
      end
      else check_int "no reverse arc" (-1) r)
    csr;
  check_int "absent arc" (-1) (Csr.arc_id csr 0 3);
  check_int "absent arc (isolated)" (-1) (Csr.arc_id csr 4 0);
  (* brute force over random digraphs with one-way arcs, reciprocal
     pairs and self-loops: every arc's [rev] is the one arc running the
     other way (itself for a self-loop), or -1 — for a snapshot, its
     transpose and its symmetric closure alike *)
  let check_rev name (c : Csr.t) =
    Csr.iter_arcs
      (fun i u v ->
        let reverse = ref (-1) in
        Csr.iter_arcs (fun j u' v' -> if u' = v && v' = u then reverse := j) c;
        check_int name !reverse c.Csr.rev.(i))
      c
  in
  for seed = 0 to 399 do
    let st = Random.State.make [| seed |] in
    let n = 1 + Random.State.int st 40 in
    let g = Gen.gnm ~seed ~n ~m:(Random.State.int st (n * n / 3 + 1)) in
    for _ = 1 to Random.State.int st 4 do
      let v = Random.State.int st n in
      Digraph.add_edge g v v
    done;
    let csr = Csr.of_digraph g in
    let rev = Csr.transpose csr in
    check_rev "of_digraph rev" csr;
    check_rev "transpose rev" rev;
    check_rev "undirected rev" (Csr.undirected csr ~rev)
  done

(* [induced] takes strictly ascending in-range ids only; the empty cut
   and the whole-graph cut are the edge cases of the same rule. *)
let csr_induced_rejects_bad_nodes () =
  let csr = Csr.of_digraph (fixture_graph ()) in
  let rejects name verts =
    check_bool name true
      (match Csr.induced csr verts with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "unsorted" [| 2; 1 |];
  rejects "repeated" [| 1; 1; 3 |];
  rejects "negative" [| -1; 0 |];
  rejects "past the end" [| 0; 6 |];
  check_int "empty cut" 0 (Csr.induced csr [||]).Csr.n;
  check_bool "whole-graph cut" true (Csr.induced csr (Array.init 6 Fun.id) = csr)

let csr_transpose_reverses_arcs () =
  let g = fixture_graph () in
  let csr = Csr.of_digraph g in
  let t = Csr.transpose csr in
  check_int "same n" csr.Csr.n t.Csr.n;
  check_int "same m" csr.Csr.m t.Csr.m;
  (* same arc multiset, reversed *)
  let arcs c =
    let out = ref [] in
    Csr.iter_arcs (fun _ u v -> out := (u, v) :: !out) c;
    List.sort compare !out
  in
  Alcotest.(check (list (pair int int))) "arcs reversed"
    (List.sort compare (List.map (fun (u, v) -> (v, u)) (arcs csr)))
    (arcs t);
  (* transposed rows are in ascending-source order: the row for [v]
     lists in-neighbours exactly as the sequential edge scatter reaches
     them (global iteration = ascending arc id = ascending source
     here) *)
  Digraph.iter_nodes
    (fun v ->
      let sources =
        Array.to_list (Array.sub t.Csr.col t.Csr.row.(v) (t.Csr.row.(v + 1) - t.Csr.row.(v)))
      in
      Alcotest.(check (list int)) "row sorted ascending"
        (List.sort compare sources) sources)
    g;
  (* double transpose restores the original arc multiset *)
  Alcotest.(check (list (pair int int))) "involution" (arcs csr) (arcs (Csr.transpose t))

(* --- alive-mask semantics ------------------------------------------------------ *)

(* Masking arcs out of the CSR must equal physically removing the edges
   from the digraph — bitwise, because the surviving adjacency order is
   unchanged in both representations. *)
let alive_mask_equals_removal () =
  let g = Digraph.to_undirected (Gen.gnm ~seed:7 ~n:14 ~m:30) in
  let csr = Csr.of_digraph g in
  let alive = Bytes.make csr.Csr.m '\001' in
  let kill u v =
    let i = Csr.arc_id csr u v in
    check_bool "arc present" true (i >= 0);
    Bytes.set alive i '\000'
  in
  (* pick the first two undirected edges and kill both directions *)
  let picked = ref [] in
  (try
     Digraph.iter_edges
       (fun u v ->
         if u < v && List.length !picked < 2 then picked := (u, v) :: !picked
         else if List.length !picked >= 2 then raise Exit)
       g
   with Exit -> ());
  (* Rebuild g with identical stored adjacency order (Digraph.copy
     prepends and so *reverses* succ lists, which perturbs float
     summation order): add_edge prepends, so feeding edges in reverse
     iteration order restores the original lists.  remove_edge filters
     in place and keeps the order of the survivors. *)
  let rev_edges = ref [] in
  Digraph.iter_edges (fun u v -> rev_edges := (u, v) :: !rev_edges) g;
  let g' = Digraph.of_edges ~n:(Digraph.n g) !rev_edges in
  List.iter
    (fun (u, v) ->
      kill u v; kill v u;
      Digraph.remove_edge g' u v;
      Digraph.remove_edge g' v u)
    !picked;
  let masked = kernel_edge_bc ~alive csr in
  let ref_acc = Brandes.compute g' in
  check_bool "edge scores bitwise" true
    (csr_edge_assoc csr masked = table_assoc ref_acc.Brandes.edge_bc)

(* [accumulate] adds into the caller's array: arcs its sources never
   reach keep their scores, pooled (more than one chunk of sources) as
   sequentially.  The incremental G-N engine relies on this to rescore
   one component while every other keeps its cached scores. *)
let accumulate_adds_into_scores () =
  (* a 40-node cycle on nodes 0..39 and a triangle on 40..42 *)
  let cycle = List.init 40 (fun i -> (i, (i + 1) mod 40)) in
  let csr = Csr.of_digraph (Digraph.of_edges ~n:43 (cycle @ [ (40, 41); (41, 42); (42, 40) ])) in
  let sources = Array.init 40 Fun.id in
  let alone = kernel_edge_bc ~sources csr in
  List.iter
    (fun (name, pool) ->
      let edge_bc = Array.make csr.Csr.m 1.0 in
      Betweenness.accumulate ?pool ~alive:(Bytes.make csr.Csr.m '\001') csr
        (Betweenness.make_scratch csr) sources ~edge_bc;
      Csr.iter_arcs
        (fun i u _ ->
          if u >= 40 then check_bool (name ^ ": unreached arc keeps its score") true (edge_bc.(i) = 1.0)
          else
            check_bool (name ^ ": reached arc adds its score") true
              (abs_float (edge_bc.(i) -. (1.0 +. alone.(i))) <= 1e-9 *. (1.0 +. alone.(i))))
        csr)
    [ ("sequential", None); ("2 domains", Some pool2); ("4 domains", Some pool4) ]

(* [accumulate] checks its inputs once per batch, before any source
   runs: the kernel reads [alive] unchecked, and a scratch counted from
   another CSR's columns would mix up the predecessor groups. *)
let rejects_misuse misuse () =
  let csr = Csr.of_digraph (fixture_graph ()) in
  let m = csr.Csr.m in
  let other = Csr.of_digraph (fixture_graph ()) in
  let alive, edge_bc, scratch, sources =
    match misuse with
    | `Short_alive -> (Bytes.make (m - 1) '\001', Array.make m 0.0, Betweenness.make_scratch csr, [| 0 |])
    | `Short_edge_bc -> (Bytes.make m '\001', Array.make (m - 1) 0.0, Betweenness.make_scratch csr, [| 0 |])
    | `Source_range s -> (Bytes.make m '\001', Array.make m 0.0, Betweenness.make_scratch csr, [| 0; s |])
    | `Foreign_scratch -> (Bytes.make m '\001', Array.make m 0.0, Betweenness.make_scratch other, [| 0 |])
  in
  check_bool "Invalid_argument" true
    (match Betweenness.accumulate ~alive csr scratch sources ~edge_bc with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "no score written" true (Array.for_all (fun c -> c = 0.0) edge_bc)

(* Minor words [f] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The kernels allocate a constant per call, not per source or per
   sweep: a list cell per predecessor over all 300 sources of this
   1,782-arc graph, or a fresh vector in each of the path's 200 sweeps,
   would put the count in the hundreds of thousands of words. *)
let accumulate_allocates_nothing_per_source () =
  let csr = Csr.of_digraph (Digraph.to_undirected (Gen.barabasi_albert ~seed:5 ~n:300 ~k:3)) in
  let alive = Bytes.make csr.Csr.m '\001' and edge_bc = Array.make csr.Csr.m 0.0 in
  let scratch = Betweenness.make_scratch csr and sources = Array.init csr.Csr.n Fun.id in
  let words =
    minor_words (fun () -> Betweenness.accumulate ~alive csr scratch sources ~edge_bc)
  in
  check_bool (Printf.sprintf "%.0f minor words < 1000" words) true (words < 1000.0)

let eigenvector_allocates_nothing_per_sweep () =
  let path = Digraph.of_edges ~n:400 (List.init 399 (fun i -> (i, i + 1))) in
  let rev = Csr.transpose (Csr.of_digraph path) in
  let words = minor_words (fun () -> ignore (Centrality.eigenvector_csr rev)) in
  check_bool (Printf.sprintf "%.0f minor words < 1000" words) true (words < 1000.0)

(* --- argmax tie-breaking -------------------------------------------------------- *)

let argmax_tie_breaking () =
  let run scores =
    Betweenness.argmax_edge (fun f ->
        List.iteri (fun i s -> f i (i + 1) s) scores)
  in
  Alcotest.(check (option (triple int int (float 0.0)))) "empty" None (run []);
  (* a sub-margin increment is a tie: the earlier edge keeps the crown *)
  Alcotest.(check (option (triple int int (float 0.0)))) "near-tie keeps incumbent"
    (Some (0, 1, 1.0))
    (run [ 1.0; 1.0 +. 1e-13; 1.0 -. 1e-13 ]);
  (* a real improvement takes over; later near-ties still lose *)
  Alcotest.(check (option (triple int int (float 0.0)))) "clear winner"
    (Some (2, 3, 2.0))
    (run [ 1.0; 1.0 +. 1e-13; 2.0; 2.0 +. 1e-13 ]);
  (* all-zero scores: the first edge wins (beats needs a strict margin) *)
  Alcotest.(check (option (triple int int (float 0.0)))) "all zero"
    (Some (0, 1, 0.0))
    (run [ 0.0; 0.0; 0.0 ])

let max_edge_on_path () =
  (* directed chain 0->1->2->3: arc (1,2) carries the most shortest
     paths (0->2, 0->3, 1->2, 1->3) *)
  let csr = Csr.of_digraph (Digraph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]) in
  let bc = kernel_edge_bc csr in
  match Betweenness.argmax_edge (fun f -> Csr.iter_arcs (fun i u v -> f u v bc.(i)) csr) with
  | Some (1, 2, s) -> Alcotest.(check (float 1e-9)) "score" 4.0 s
  | other ->
      Alcotest.failf "expected arc (1,2), got %s"
        (match other with
        | None -> "None"
        | Some (u, v, s) -> Printf.sprintf "(%d,%d,%g)" u v s)

(* --- Girvan-Newman edge-case units --------------------------------------------- *)

let gn_engines_agree_on g =
  check_bool "step" true
    (same_step (Community.girvan_newman_step g) (Gn_ref.girvan_newman_step g));
  check_bool "target" true
    (same_step
       (Community.girvan_newman ~target:2 g)
       (Gn_ref.girvan_newman ~target:2 g))

let gn_empty_graph () = gn_engines_agree_on (Digraph.create ())
let gn_edgeless_graph () = gn_engines_agree_on (Digraph.of_edges ~n:5 [])

let gn_self_loops_only () =
  let g = Digraph.of_edges ~n:3 [ (0, 0); (2, 2) ] in
  gn_engines_agree_on g

let gn_single_edge () =
  let g = Digraph.of_edges ~n:2 [ (0, 1) ] in
  let step = Community.girvan_newman_step g in
  check_int "splits into 2" 2 (Community.community_count step.Community.partition);
  Alcotest.(check (list (pair int int))) "cut the only edge" [ (0, 1) ]
    step.Community.removed_edges;
  gn_engines_agree_on g

let gn_bridge_and_budget () =
  let g = Gen.two_clusters ~seed:3 ~size:8 ~p_intra:0.5 ~bridges:1 in
  gn_engines_agree_on g;
  (* a removal budget of 1 must stop both engines at the same place *)
  let a = Community.girvan_newman_step ~max_removals:1 g in
  let b = Gn_ref.girvan_newman_step ~max_removals:1 g in
  check_bool "budget respected identically" true (same_step a b);
  check_bool "at most one removal" true (List.length a.Community.removed_edges <= 1)

(* --- generators ----------------------------------------------------------------- *)

(* Random digraphs: 1-3 disjoint G(n,m) blobs (multi-component coverage
   for the per-component invalidation logic) plus optional self-loops;
   blobs with m = 0 give edgeless components. *)
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

let pools = [ ("2 domains", pool2); ("4 domains", pool4) ]

(* --- incremental G-N = reference G-N -------------------------------------------- *)

let prop_gn_step_differential =
  QCheck2.Test.make ~name:"incremental G-N step = reference (seq + pools)" ~count:35
    graph_gen (fun g ->
      let seq_ref = Gn_ref.girvan_newman_step g in
      same_step (Community.girvan_newman_step g) seq_ref
      && List.for_all
           (fun (_, pool) ->
             same_step (Community.girvan_newman_step ~pool g)
               (Gn_ref.girvan_newman_step ~pool g))
           pools)

let prop_gn_target_differential =
  QCheck2.Test.make ~name:"incremental G-N target:3 = reference (seq + pools)" ~count:25
    graph_gen (fun g ->
      let seq_ref = Gn_ref.girvan_newman ~target:3 g in
      same_step (Community.girvan_newman ~target:3 g) seq_ref
      && List.for_all
           (fun (_, pool) ->
             same_step
               (Community.girvan_newman ~target:3 ~pool g)
               (Gn_ref.girvan_newman ~target:3 ~pool g))
           pools)

let prop_gn_approx_differential =
  QCheck2.Test.make ~name:"incremental sampled G-N = reference (approx:6)" ~count:25
    graph_gen (fun g ->
      same_step
        (Community.girvan_newman_step ~approx:6 g)
        (Gn_ref.girvan_newman_step ~approx:6 g)
      && same_step
           (Community.girvan_newman_step ~approx:6 ~pool:pool2 g)
           (Gn_ref.girvan_newman_step ~approx:6 ~pool:pool2 g))

(* --- CSR Brandes = hashtable Brandes -------------------------------------------- *)

let prop_csr_brandes_bitwise_seq =
  QCheck2.Test.make ~name:"CSR Brandes = hashtable Brandes (bitwise, seq)" ~count:50
    graph_gen (fun g ->
      let csr = Csr.of_digraph g in
      let a = kernel_edge_bc csr in
      let b = Brandes.compute g in
      csr_edge_assoc csr a = table_assoc b.Brandes.edge_bc)

let prop_csr_brandes_bitwise_pool =
  QCheck2.Test.make ~name:"CSR Brandes = hashtable Brandes (bitwise, pools)" ~count:35
    graph_gen (fun g ->
      let csr = Csr.of_digraph g in
      List.for_all
        (fun (_, pool) ->
          let a = kernel_edge_bc ~pool csr in
          let b = Brandes.compute ~pool g in
          csr_edge_assoc csr a = table_assoc b.Brandes.edge_bc)
        pools
      (* and the CSR path itself is pool-size independent *)
      && kernel_edge_bc ~pool:pool2 csr = kernel_edge_bc ~pool:pool4 csr)

let prop_csr_sources_restriction =
  QCheck2.Test.make ~name:"CSR source-restricted Brandes = hashtable (bitwise)" ~count:40
    graph_gen (fun g ->
      let csr = Csr.of_digraph g in
      let n = Digraph.n g in
      (* every other node as BFS source, like sampled estimation does *)
      let sources =
        Array.of_list (List.filter (fun v -> v mod 2 = 0) (List.init n Fun.id))
      in
      let a = kernel_edge_bc ~sources csr in
      let b = Brandes.compute_sources g sources in
      csr_edge_assoc csr a = table_assoc b.Brandes.edge_bc)

(* --- eigenvector gather = historical scatter ------------------------------------ *)

(* Inline copy of the pre-CSR edge-scatter sweep; the gather over the
   (transposed) CSR must reproduce it bitwise, because row order equals
   scatter arrival order. *)
let eigenvector_scatter ?(direction = Centrality.In) ?(max_iter = 200) ?(tol = 1e-10) g =
  let n = Digraph.n g in
  if n = 0 then [||]
  else begin
    let l2_normalize x =
      let s = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x) in
      if s > 0.0 then Array.map (fun v -> v /. s) x else x
    in
    let x = Array.make n (1.0 /. float_of_int n) in
    let x' = Array.make n 0.0 in
    let rec iterate k x x' =
      if k = 0 then x
      else begin
        Array.blit x 0 x' 0 n;
        Digraph.iter_edges
          (fun u v ->
            match direction with
            | Centrality.In -> x'.(v) <- x'.(v) +. x.(u)
            | Centrality.Out -> x'.(u) <- x'.(u) +. x.(v))
          g;
        let x'' = l2_normalize x' in
        let delta = ref 0.0 in
        for i = 0 to n - 1 do
          delta := !delta +. abs_float (x''.(i) -. x.(i))
        done;
        if !delta < tol *. float_of_int n then x''
        else begin
          Array.blit x'' 0 x 0 n;
          iterate (k - 1) x x'
        end
      end
    in
    iterate max_iter x x'
  end

let prop_eigenvector_gather_matches_scatter =
  QCheck2.Test.make ~name:"eigenvector CSR gather = edge scatter (bitwise)" ~count:40
    graph_gen (fun g ->
      Centrality.eigenvector ~direction:Centrality.In g
        = eigenvector_scatter ~direction:Centrality.In g
      && Centrality.eigenvector ~direction:Centrality.Out g
         = eigenvector_scatter ~direction:Centrality.Out g)

let prop_eigenvector_pool_bitwise =
  QCheck2.Test.make ~name:"eigenvector seq = pooled (bitwise)" ~count:40 graph_gen
    (fun g ->
      let seq = Centrality.eigenvector ~direction:Centrality.In g in
      List.for_all
        (fun (_, pool) -> seq = Centrality.eigenvector ~direction:Centrality.In ~pool g)
        pools)

(* --- masked traversal kernels = list kernels on the induced subgraph ------------ *)

(* Node-alive masking must be indistinguishable from materializing the
   induced subgraph on the alive nodes: distances, ancestor sets and
   weakly connected components all agree after mapping sub ids back to
   parent ids.  Alive subsets are derived from an extra generator seed. *)
let masked_gen = QCheck2.Gen.(pair graph_gen (int_range 0 1_000_000))

let alive_subset g seed =
  let st = Random.State.make [| seed |] in
  List.filter (fun _ -> Random.State.bool st) (List.init (Digraph.n g) Fun.id)

let prop_masked_bfs_dist =
  QCheck2.Test.make ~name:"masked BFS dist = BFS on induced subgraph" ~count:40
    masked_gen (fun (g, seed) ->
      let n = Digraph.n g in
      let alive_nodes = alive_subset g seed in
      let csr = Csr.of_digraph g in
      let alive = Csr.mask_of_list csr alive_nodes in
      let sub = Digraph.induced_subgraph g alive_nodes in
      let sources = List.filteri (fun i _ -> i mod 2 = 0) alive_nodes in
      let masked = Traverse.bfs_dist_csr csr ~alive sources in
      let dsub =
        Traverse.bfs_dist sub.Digraph.graph
          (List.filter_map (Digraph.sub_of_parent sub) sources)
      in
      List.for_all
        (fun v ->
          match Digraph.sub_of_parent sub v with
          | Some sv -> masked.(v) = dsub.(sv)
          | None -> masked.(v) = Traverse.no_dist)
        (List.init n Fun.id)
      (* and a full mask reproduces the unmasked traversal exactly *)
      && Traverse.bfs_dist_csr csr ~alive:(Csr.full_mask csr) sources
         = Traverse.bfs_dist g sources)

let prop_masked_ancestors =
  QCheck2.Test.make ~name:"masked ancestors = ancestors of induced subgraph" ~count:40
    masked_gen (fun (g, seed) ->
      let alive_nodes = alive_subset g seed in
      let csr = Csr.of_digraph g in
      let rev = Csr.transpose csr in
      let alive = Csr.mask_of_list csr alive_nodes in
      let sub = Digraph.induced_subgraph g alive_nodes in
      let targets = List.filteri (fun i _ -> i mod 3 = 0) alive_nodes in
      let masked = Traverse.ancestors_csr ~rev ~alive targets in
      let reference =
        Traverse.ancestors sub.Digraph.graph
          (List.filter_map (Digraph.sub_of_parent sub) targets)
        |> List.map (Digraph.sub_to_parent sub)
        |> List.sort compare
      in
      masked = reference
      && Traverse.ancestors_csr ~rev ~alive:(Csr.full_mask csr) targets
         = Traverse.ancestors g targets)

let prop_masked_components =
  QCheck2.Test.make
    ~name:"masked weak components = components of induced subgraph (same order)"
    ~count:40 masked_gen (fun (g, seed) ->
      let alive_nodes = alive_subset g seed in
      let csr = Csr.of_digraph g in
      let rev = Csr.transpose csr in
      let alive = Csr.mask_of_list csr alive_nodes in
      let sub = Digraph.induced_subgraph g alive_nodes in
      let masked = Components.weakly_connected_components_csr csr ~rev ~alive in
      let reference =
        Components.weakly_connected_components sub.Digraph.graph
        |> List.map (List.map (Digraph.sub_to_parent sub))
      in
      (* exact equality locks the discovery order (ascending smallest
         member) and the ascending order inside each component *)
      masked = reference
      && Components.weakly_connected_components_csr csr ~rev ~alive:(Csr.full_mask csr)
         = Components.weakly_connected_components g)

(* Cutting a subgraph from the closure or the transpose must give, field
   for field, the CSR that rebuilding the induced digraph and then
   symmetrizing (or transposing) it gives: refinement's step-5/6 kernels
   read the cuts, and bitwise-identical results rest on this. *)
let prop_induced_cuts =
  QCheck2.Test.make ~name:"induced cut of closure / transpose = rebuilt subgraph CSR"
    ~count:80 masked_gen (fun (g, seed) ->
      (* densities from every node down to one in eight, so the cut's
         lookup sees dense runs, wide gaps and single nodes *)
      let st = Random.State.make [| seed |] in
      let one_in = 1 + Random.State.int st 8 in
      let alive_nodes =
        List.filter (fun _ -> Random.State.int st one_in = 0) (List.init (Digraph.n g) Fun.id)
      in
      let verts = Array.of_list alive_nodes in
      let csr = Csr.of_digraph g in
      let rev = Csr.transpose csr in
      let sub = (Digraph.induced_subgraph g alive_nodes).Digraph.graph in
      Csr.induced (Csr.undirected csr ~rev) verts = Csr.of_digraph (Digraph.to_undirected sub)
      && Csr.induced rev verts = Csr.transpose (Csr.of_digraph sub))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_gn_step_differential;
      prop_gn_target_differential;
      prop_gn_approx_differential;
      prop_csr_brandes_bitwise_seq;
      prop_csr_brandes_bitwise_pool;
      prop_csr_sources_restriction;
      prop_eigenvector_gather_matches_scatter;
      prop_eigenvector_pool_bitwise;
      prop_masked_bfs_dist;
      prop_masked_ancestors;
      prop_masked_components;
      prop_induced_cuts;
    ]

let () =
  Alcotest.run "rca_csr_gn"
    [
      ( "csr",
        [
          Alcotest.test_case "mirrors digraph" `Quick csr_mirrors_digraph;
          Alcotest.test_case "rev + arc_id" `Quick csr_rev_and_arc_id;
          Alcotest.test_case "transpose" `Quick csr_transpose_reverses_arcs;
          Alcotest.test_case "induced rejects bad nodes" `Quick csr_induced_rejects_bad_nodes;
          Alcotest.test_case "alive mask = edge removal" `Quick alive_mask_equals_removal;
          Alcotest.test_case "accumulate adds into scores" `Quick accumulate_adds_into_scores;
          Alcotest.test_case "accumulate rejects short alive" `Quick (rejects_misuse `Short_alive);
          Alcotest.test_case "accumulate rejects short edge_bc" `Quick
            (rejects_misuse `Short_edge_bc);
          Alcotest.test_case "accumulate rejects negative source" `Quick
            (rejects_misuse (`Source_range (-1)));
          Alcotest.test_case "accumulate rejects source n" `Quick (rejects_misuse (`Source_range 6));
          Alcotest.test_case "accumulate rejects foreign scratch" `Quick
            (rejects_misuse `Foreign_scratch);
        ] );
      ( "allocation",
        [
          Alcotest.test_case "accumulate: none per source" `Quick
            accumulate_allocates_nothing_per_source;
          Alcotest.test_case "eigenvector: none per sweep" `Quick
            eigenvector_allocates_nothing_per_sweep;
        ] );
      ( "argmax",
        [
          Alcotest.test_case "tie breaking" `Quick argmax_tie_breaking;
          Alcotest.test_case "max_edge on a path" `Quick max_edge_on_path;
        ] );
      ( "girvan-newman edge cases",
        [
          Alcotest.test_case "empty graph" `Quick gn_empty_graph;
          Alcotest.test_case "edgeless graph" `Quick gn_edgeless_graph;
          Alcotest.test_case "self-loops only" `Quick gn_self_loops_only;
          Alcotest.test_case "single edge" `Quick gn_single_edge;
          Alcotest.test_case "bridge + removal budget" `Quick gn_bridge_and_budget;
        ] );
      ("differential", qcheck_cases);
    ]
