(* Community detection.

   The paper partitions each induced subgraph with the Girvan–Newman
   algorithm (Girvan & Newman 2002): repeatedly remove the edge of highest
   betweenness until the number of connected components increases; one such
   split is "one G-N iteration" (paper Algorithm 5.4 step 5).  G-N operates
   on the undirected (symmetrized) view of the subgraph.

   Exact G-N as the paper states it recomputes full edge betweenness after
   every removal, O(n·m) each; that formulation lives in test/oracle as the
   differential reference for the component-incremental engine here.  The
   engine also supports source-sampled betweenness (`approx`) for the large
   paper-scale subgraphs.  The fast alternatives are deterministic
   modularity-greedy agglomeration and asynchronous label propagation (an
   extension the paper's "numerous algorithms for graph partitioning"
   remark invites). *)

type partition = {
  labels : int array;  (* node -> community id, 0-based *)
  communities : int list list;  (* sorted by decreasing size *)
}

let partition_of_labels labels k =
  let buckets = Array.make k [] in
  for v = Array.length labels - 1 downto 0 do
    let c = labels.(v) in
    buckets.(c) <- v :: buckets.(c)
  done;
  let communities =
    Array.to_list buckets
    |> List.filter (fun c -> c <> [])
    |> List.sort (fun a b -> compare (List.length b) (List.length a))
  in
  (* Renumber labels to match the sorted community order. *)
  let labels' = Array.make (Array.length labels) (-1) in
  List.iteri (fun i comm -> List.iter (fun v -> labels'.(v) <- i) comm) communities;
  { labels = labels'; communities }

(* Labels renumbered 0, 1, ... in order of first appearance, with their
   count. *)
let compact labels =
  let remap = Hashtbl.create 16 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt remap c with
      | Some c' -> c'
      | None ->
          let c' = Hashtbl.length remap in
          Hashtbl.replace remap c c';
          c')
    labels
  |> fun l -> (l, Hashtbl.length remap)

let of_components g =
  let labels, k = Components.weakly_connected_labels g in
  partition_of_labels labels k

let community_count p = List.length p.communities

(* Newman–Girvan modularity of a partition on an undirected (symmetrized)
   digraph: Q = sum_c (e_c/m - (d_c/2m)^2) with m undirected edges. *)
let modularity g p =
  let m2 = float_of_int (Digraph.m g) in
  (* symmetrized: m arcs = 2x undirected edges *)
  if m2 = 0.0 then 0.0
  else begin
    let k = community_count p in
    let internal = Array.make k 0.0 in
    let deg_sum = Array.make k 0.0 in
    Digraph.iter_edges
      (fun u v -> if p.labels.(u) = p.labels.(v) then internal.(p.labels.(u)) <- internal.(p.labels.(u)) +. 1.0)
      g;
    Digraph.iter_nodes
      (fun v -> deg_sum.(p.labels.(v)) <- deg_sum.(p.labels.(v)) +. float_of_int (Digraph.degree g v))
      g;
    let q = ref 0.0 in
    for c = 0 to k - 1 do
      q := !q +. (internal.(c) /. m2) -. ((deg_sum.(c) /. m2) ** 2.0)
    done;
    !q
  end

(* The fixed BFS source set Girvan–Newman betweenness uses.  When
   [approx] is [Some k] and the graph has more than k nodes, betweenness
   is estimated from k evenly spaced sources (deterministic, so results
   are reproducible).  G-N never deletes nodes, only edges, so this set
   is fixed for a whole run — the incremental engine relies on that to
   recompute a component from exactly the sampled sources it contains. *)
let gn_sources ?approx n =
  match approx with
  | Some k when n > k && k > 0 ->
      let step = float_of_int n /. float_of_int k in
      Array.init k (fun i -> int_of_float (float_of_int i *. step))
  | _ -> Array.init n (fun i -> i)

type gn_step = {
  partition : partition;
  removed_edges : (int * int) list;  (* undirected pairs removed *)
}

(* --- component-incremental engine over a frozen CSR ------------------------ *)

(* Removing edge (u, v) can only change shortest paths inside the
   component containing u and v: BFS trees rooted in other components
   never reach the removed edge, so their betweenness contributions are
   untouched.  The engine therefore keeps one global arc-score array
   (valid per component) and, after each removal, rescores only the
   component of u (and, after a split, the component of v) — from
   exactly the fixed sources that lie in it — while every other
   component keeps its cached scores.  Late-stage G-N (many small
   components) drops from O(n·m) to O(n_c·m_c) per removal, plus an O(m)
   cached-score argmax scan.

   Determinism: every score goes through one call,
   [Betweenness.accumulate].  A sequential rescore adds exactly the same
   contributions in exactly the same order as a full sequential
   recomputation does for that component's arcs (sources ascend, CSR
   rows preserve adjacency order, other components contribute exactly
   nothing), so cached scores are bitwise identical to the reference's.
   The argmax deliberately re-scans all alive arcs in global arc order
   (Betweenness.argmax_edge) instead of combining per-component cached
   maxima: near-ties are resolved by scan order, and combining
   out-of-order partial maxima can pick a different edge of a near-tied
   pair.  Under a pool, per-component source chunking differs from the
   reference's global chunking, which perturbs sums by last-ulp noise —
   absorbed by the relative 1e-9 margin of [Betweenness.beats], exactly
   as for sequential-vs-parallel. *)
let remove_until ?approx ?pool ?(max_removals = 2000) ~stop (csr : Csr.t) =
  let n = csr.Csr.n and m = csr.Csr.m in
  let row = csr.Csr.row and col = csr.Csr.col and src = csr.Csr.src in
  let alive = Bytes.make m '\001' in
  let arcs_alive = ref m in
  let edge_bc = Array.make m 0.0 in
  let sources = gn_sources ?approx n in
  (* Component labels; [ncomps] is also the next fresh label. *)
  let comp = Array.make n (-1) in
  let ncomps = ref 0 in
  (* Generation-stamped BFS over alive arcs (the working graph is
     symmetric, so forward arcs suffice); returns how many nodes it
     reached, listed in [visit] and stamped with the current
     [generation] in [mark]. *)
  let mark = Array.make n (-1) in
  let generation = ref 0 in
  let visit = Array.make n 0 in
  let bfs start =
    incr generation;
    let gen = !generation in
    mark.(start) <- gen;
    visit.(0) <- start;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = visit.(!head) in
      incr head;
      for i = row.(u) to row.(u + 1) - 1 do
        if Bytes.unsafe_get alive i <> '\000' then begin
          let v = col.(i) in
          if mark.(v) <> gen then begin
            mark.(v) <- gen;
            visit.(!tail) <- v;
            incr tail
          end
        end
      done
    done;
    !tail
  in
  let new_component reached =
    for k = 0 to reached - 1 do
      comp.(visit.(k)) <- !ncomps
    done;
    incr ncomps
  in
  for v = 0 to n - 1 do
    if comp.(v) = -1 then new_component (bfs v)
  done;
  (* One scratch, reused by every sequential batch; the
     reset-in-O(visited) contract keeps small components cheap. *)
  let scratch = Betweenness.make_scratch csr in
  let accumulate srcs = Betweenness.accumulate ?pool ~alive csr scratch srcs ~edge_bc in
  (* Initial scores: one accumulation over the fixed source set — the
     exact computation (and, under a pool, the exact chunk structure)
     the reference performs before its first removal. *)
  Rca_obs.Obs.span "gn.initial_scores" (fun () -> accumulate sources);
  (* Zero the arcs of the component the last BFS reached, then
     accumulate its sources: the ascending [sources] filtered by the
     BFS's stamp, so they ascend like the reference's. *)
  let srcbuf = Array.make (Array.length sources) 0 in
  let rescore reached =
    Rca_obs.Obs.span
      ~args:[ ("component_nodes", Rca_obs.Obs.Int reached) ]
      "gn.recompute"
    @@ fun () ->
    for k = 0 to reached - 1 do
      let u = visit.(k) in
      for i = row.(u) to row.(u + 1) - 1 do
        edge_bc.(i) <- 0.0
      done
    done;
    let count = ref 0 in
    Array.iter
      (fun s ->
        if mark.(s) = !generation then begin
          srcbuf.(!count) <- s;
          incr count
        end)
      sources;
    Rca_obs.Obs.incr "gn.components_rescored";
    Rca_obs.Obs.incr ~by:!count "gn.sources_rescored";
    accumulate (Array.sub srcbuf 0 !count)
  in
  let best_edge () =
    Rca_obs.Obs.incr ~by:m "gn.argmax_arcs_scanned";
    Betweenness.argmax_edge (fun f ->
        for i = 0 to m - 1 do
          (* Alive arcs of the symmetric working graph come in pairs, so
             "first directed occurrence" is exactly [u <= v]; the score
             sums both arc directions like the reference. *)
          if Bytes.unsafe_get alive i <> '\000' then begin
            let u = src.(i) and v = col.(i) in
            if u <= v then f u v (edge_bc.(i) +. edge_bc.(csr.Csr.rev.(i)))
          end
        done)
  in
  let remove u v =
    let i = Csr.arc_id csr u v in
    if i >= 0 && Bytes.get alive i <> '\000' then begin
      let j = csr.Csr.rev.(i) in
      Bytes.set alive i '\000';
      decr arcs_alive;
      if j >= 0 && j <> i then begin
        Bytes.set alive j '\000';
        decr arcs_alive
      end;
      (* refresh the scores of [u]'s component, which after a split is
         [u]'s side; every other component's cache is untouched *)
      let reached = bfs u in
      let split = u <> v && mark.(v) <> !generation in
      rescore reached;
      if split then begin
        (* [v]'s side gets a fresh label and its own scores *)
        let reached = bfs v in
        new_component reached;
        rescore reached
      end
    end
  in
  let current () =
    (* Relabel components in first-node order — the labeling
       [of_components] produces on the reference's working graph. *)
    let labels, k = compact comp in
    partition_of_labels labels k
  in
  let initial_ncomps = !ncomps in
  let removed = ref [] in
  let rec loop budget =
    if budget > 0 && not (stop ~initial:initial_ncomps ~ncomps:!ncomps ~arcs:!arcs_alive) then
      match best_edge () with
      | None -> ()
      | Some (u, v, _) ->
          remove u v;
          removed := (u, v) :: !removed;
          loop (budget - 1)
  in
  loop max_removals;
  { partition = current (); removed_edges = List.rev !removed }

(* --- entry points ----------------------------------------------------------- *)

(* Telemetry for one G-N entry: removals performed and resulting
   community count. *)
let gn_span name f =
  Rca_obs.Obs.span' name
    (fun s ->
      [
        ("removals", Rca_obs.Obs.Int (List.length s.removed_edges));
        ("communities", Rca_obs.Obs.Int (community_count s.partition));
      ])
    f

(* The symmetric CSR every partitioner runs on, for a digraph caller. *)
let symmetric g = Csr.of_digraph (Digraph.to_undirected g)

(* One Girvan–Newman iteration on a symmetric CSR: remove top-betweenness
   edges until the weak component count increases.  [max_removals]
   bounds the work; if reached, the current partition is returned
   as-is. *)
let girvan_newman_step_csr ?approx ?pool ?max_removals csr =
  gn_span "gn.step" (fun () ->
      remove_until ?approx ?pool ?max_removals
        ~stop:(fun ~initial ~ncomps ~arcs:_ -> ncomps > initial)
        csr)

let girvan_newman_step ?approx ?pool ?max_removals g =
  girvan_newman_step_csr ?approx ?pool ?max_removals (symmetric g)

(* Run G-N until at least [target] communities exist (or no edges
   remain).  Returns the state at the first point the target is met. *)
let girvan_newman ?approx ?pool ?max_removals ~target g =
  gn_span "gn.run" (fun () ->
      remove_until ?approx ?pool ?max_removals
        ~stop:(fun ~initial:_ ~ncomps ~arcs -> ncomps >= target || arcs = 0)
        (symmetric g))

(* Asynchronous label propagation (Raghavan et al. 2007) on a symmetric
   CSR, deterministic (seed [lp_seed]).  Fast alternative partitioner. *)
let lp_seed = 7
let lp_max_sweeps = 50

let label_propagation_csr (csr : Csr.t) =
  let n = csr.Csr.n and row = csr.Csr.row and col = csr.Csr.col in
  let labels = Array.init n (fun i -> i) in
  let rng = Rca_rng.Splitmix.create lp_seed in
  let order = Array.init n (fun i -> i) in
  let changed = ref true in
  let sweeps = ref 0 in
  let counts = Hashtbl.create 16 in
  while !changed && !sweeps < lp_max_sweeps do
    changed := false;
    incr sweeps;
    Rca_rng.Prng.shuffle rng order;
    Array.iter
      (fun v ->
        if row.(v + 1) > row.(v) then begin
          Hashtbl.reset counts;
          for i = row.(v) to row.(v + 1) - 1 do
            let c = labels.(col.(i)) in
            Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
          done;
          let best_label, best_count =
            Hashtbl.fold
              (fun c k ((bc, bk) as acc) ->
                if k > bk || (k = bk && c < bc) then (c, k) else acc)
              counts (labels.(v), 0)
          in
          ignore best_count;
          if best_label <> labels.(v) then begin
            labels.(v) <- best_label;
            changed := true
          end
        end)
      order
  done;
  let labels, k = compact labels in
  partition_of_labels labels k

let label_propagation g = label_propagation_csr (symmetric g)

(* Communities of at least [min_size] nodes — Algorithm 5.4 step 5 omits
   communities smaller than 3 nodes. *)
let significant_communities ?(min_size = 3) p =
  List.filter (fun c -> List.length c >= min_size) p.communities

(* --- modularity-greedy agglomeration on a symmetric CSR ------------------- *)

(* A deterministic Louvain/Leiden-style engine: level 0 runs directly
   over the rows of a symmetric CSR (no hashtables on the hot path),
   coarser levels over small explicit weighted graphs, and a final
   Leiden-flavoured local-move sweep back at level 0 lets individual
   nodes correct memberships the coarse levels locked in.

   Unlike a textbook Louvain, which breaks gain ties in whatever order
   its neighbour table iterates, this engine's tie-breaking is explicit:
   nodes are visited in ascending id order, a node's candidate
   communities are compared by gain with an epsilon guard, equal gains
   keep the smaller community id, and a move happens only when the best
   candidate strictly beats staying put.  Moves therefore increase modularity monotonically —
   the final partition's Q can never drop below the trivial all-singleton
   partition it starts from — and the whole computation is a pure
   function of the graph: no RNG, no pool, no iteration-order hazards. *)

let greedy_eps = 1e-12

(* One greedy local-move phase over an abstract weighted graph:
   [iter_nbrs v f] presents each distinct neighbour [u <> v] once with
   its edge weight, in a fixed order; [deg] is the weighted degree
   (2*self + adjacent weight); [labels] seeds the assignment (identity
   for a fresh level, the flat labels for the final refinement sweep)
   and is updated in place.  Returns whether any move happened. *)
let greedy_local_phase ~n ~iter_nbrs ~deg ~m2 labels =
  let comm_tot = Array.make n 0.0 in
  Array.iteri (fun v c -> comm_tot.(c) <- comm_tot.(c) +. deg.(v)) labels;
  let neigh_w = Array.make n 0.0 in
  let neigh_stamp = Array.make n (-1) in
  let neigh_comms = Array.make n 0 in
  let gen = ref 0 in
  let moved = ref false in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < 32 do
    improved := false;
    incr sweeps;
    for v = 0 to n - 1 do
      incr gen;
      let g = !gen in
      let nn = ref 0 in
      iter_nbrs v (fun u w ->
          let c = labels.(u) in
          if neigh_stamp.(c) <> g then begin
            neigh_stamp.(c) <- g;
            neigh_w.(c) <- w;
            neigh_comms.(!nn) <- c;
            incr nn
          end
          else neigh_w.(c) <- neigh_w.(c) +. w);
      let cv = labels.(v) in
      comm_tot.(cv) <- comm_tot.(cv) -. deg.(v);
      let w_cv = if neigh_stamp.(cv) = g then neigh_w.(cv) else 0.0 in
      let stay = w_cv -. (comm_tot.(cv) *. deg.(v) /. m2) in
      let best_c = ref (-1) in
      let best_gain = ref neg_infinity in
      for i = 0 to !nn - 1 do
        let c = neigh_comms.(i) in
        if c <> cv then begin
          let gain = neigh_w.(c) -. (comm_tot.(c) *. deg.(v) /. m2) in
          if
            gain > !best_gain +. greedy_eps
            || (c < !best_c && gain >= !best_gain -. greedy_eps)
          then begin
            best_c := c;
            best_gain := gain
          end
        end
      done;
      if !best_c >= 0 && !best_gain > stay +. greedy_eps then begin
        labels.(v) <- !best_c;
        comm_tot.(!best_c) <- comm_tot.(!best_c) +. deg.(v);
        moved := true;
        improved := true
      end
      else comm_tot.(cv) <- comm_tot.(cv) +. deg.(v)
    done
  done;
  !moved

(* Coarse levels: small explicit weighted graphs with sorted adjacency
   (the deterministic contraction of the level below). *)
type cgraph = {
  cn : int;
  cnbr : int array array;  (* distinct neighbour ids, ascending *)
  cwgt : float array array;
  cself : float array;
}

let greedy_contract ~n ~iter_nbrs ~self ~labels ~k =
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    members.(labels.(v)) <- v :: members.(labels.(v))
  done;
  let cself = Array.make k 0.0 in
  let nbr_w = Array.make k 0.0 in
  let nbr_stamp = Array.make k (-1) in
  let nbr_ids = Array.make k 0 in
  let cnbr = Array.make k [||] in
  let cwgt = Array.make k [||] in
  for c = 0 to k - 1 do
    let nn = ref 0 in
    List.iter
      (fun v ->
        cself.(c) <- cself.(c) +. self.(v);
        iter_nbrs v (fun u w ->
            let cu = labels.(u) in
            if cu = c then begin
              (* internal edge: both endpoints iterate it; count it once
                 (at the lower-id endpoint) as coarse self weight *)
              if v < u then cself.(c) <- cself.(c) +. w
            end
            else if nbr_stamp.(cu) <> c then begin
              nbr_stamp.(cu) <- c;
              nbr_w.(cu) <- w;
              nbr_ids.(!nn) <- cu;
              incr nn
            end
            else nbr_w.(cu) <- nbr_w.(cu) +. w))
      members.(c);
    let ids = Array.sub nbr_ids 0 !nn in
    Array.sort compare ids;
    cnbr.(c) <- ids;
    cwgt.(c) <- Array.map (fun u -> nbr_w.(u)) ids
  done;
  { cn = k; cnbr; cwgt; cself }

(* Partition a symmetric CSR.  Level 0 reads each row directly: every
   neighbour other than the node itself once with weight 1, a self-loop
   as self weight.  All weights and degrees are integer-valued floats,
   so their sums are exact in any order, and the explicit tie-breaking
   above then makes the result independent of slot order within a
   row. *)
let greedy_max_levels = 12

let modularity_greedy_csr (csr : Csr.t) =
  let n = csr.Csr.n in
  if n = 0 then partition_of_labels [||] 0
  else begin
    Rca_obs.Obs.span' "greedy.partition"
      (fun p ->
        [
          ("nodes", Rca_obs.Obs.Int n);
          ("communities", Rca_obs.Obs.Int (community_count p));
        ])
    @@ fun () ->
    let row = csr.Csr.row and col = csr.Csr.col in
    let iter_nbrs0 u f =
      for a = row.(u) to row.(u + 1) - 1 do
        if col.(a) <> u then f col.(a) 1.0
      done
    in
    let self0 = Array.make n 0.0 in
    let deg0 = Array.make n 0.0 in
    let half_edges = ref 0 in
    for u = 0 to n - 1 do
      let nbrs = ref 0 in
      for a = row.(u) to row.(u + 1) - 1 do
        if col.(a) = u then self0.(u) <- 1.0 else incr nbrs
      done;
      deg0.(u) <- (2.0 *. self0.(u)) +. float_of_int !nbrs;
      half_edges := !half_edges + !nbrs
    done;
    let total_w =
      Array.fold_left ( +. ) 0.0 self0 +. (float_of_int !half_edges /. 2.0)
    in
    if total_w = 0.0 then partition_of_labels (Array.init n Fun.id) n
    else begin
      let m2 = 2.0 *. total_w in
      let flat = Array.init n (fun i -> i) in
      let labels0 = Array.init n (fun i -> i) in
      let moved0 = greedy_local_phase ~n ~iter_nbrs:iter_nbrs0 ~deg:deg0 ~m2 labels0 in
      let levels = ref 1 in
      if moved0 then begin
        let labels0, k0 = compact labels0 in
        Array.blit labels0 0 flat 0 n;
        let cg =
          ref (greedy_contract ~n ~iter_nbrs:iter_nbrs0 ~self:self0 ~labels:labels0 ~k:k0)
        in
        let continue_ = ref true in
        while !continue_ && !levels < greedy_max_levels do
          incr levels;
          let g = !cg in
          let iter_nbrs v f =
            let ids = g.cnbr.(v) and ws = g.cwgt.(v) in
            for x = 0 to Array.length ids - 1 do
              f ids.(x) ws.(x)
            done
          in
          let deg =
            Array.init g.cn (fun v ->
                (2.0 *. g.cself.(v)) +. Array.fold_left ( +. ) 0.0 g.cwgt.(v))
          in
          let labels = Array.init g.cn (fun i -> i) in
          let moved = greedy_local_phase ~n:g.cn ~iter_nbrs ~deg ~m2 labels in
          if not moved then continue_ := false
          else begin
            let labels, k = compact labels in
            for i = 0 to n - 1 do
              flat.(i) <- labels.(flat.(i))
            done;
            cg := greedy_contract ~n:g.cn ~iter_nbrs ~self:g.cself ~labels ~k
          end
        done
      end;
      (* Leiden-flavoured refinement: one more level-0 local-move phase
         seeded with the coarse assignment (still monotone in Q) *)
      ignore (greedy_local_phase ~n ~iter_nbrs:iter_nbrs0 ~deg:deg0 ~m2 flat);
      Rca_obs.Obs.incr ~by:!levels "greedy.levels";
      let flat, k = compact flat in
      partition_of_labels flat k
    end
  end

let modularity_greedy g = modularity_greedy_csr (symmetric g)
