(* Node centralities (paper Sections 5.2–5.3 and supplementary 8.1).

   The pipeline ranks nodes inside each community by eigenvector
   *in*-centrality (information sinks: nodes likely to be affected by bug
   sources).  Degree, PageRank and the Hashimoto non-backtracking
   centrality are provided for the comparisons the paper reports. *)

type direction = In | Out

(* Power-iteration settings: [tol] bounds the L1 change per entry,
   [pagerank_tol] the absolute L1 change. *)
let max_iter = 200
let tol = 1e-10
let pagerank_d = 0.85
let pagerank_tol = 1e-12

let l2_normalize x =
  let s = sqrt (Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x) in
  if s > 0.0 then Array.map (fun v -> v /. s) x else x

let degree ?(direction = Out) g =
  let n = Digraph.n g in
  let scale = if n > 1 then 1.0 /. float_of_int (n - 1) else 1.0 in
  Array.init n (fun v ->
      let d = match direction with Out -> Digraph.out_degree g v | In -> Digraph.in_degree g v in
      float_of_int d *. scale)

(* Eigenvector centrality by shifted power iteration, x <- x + M x, where
   row v of the CSR [m] lists the nodes x_v accumulates from: the
   transpose of A for in-centrality (predecessors), A itself for
   out-centrality.  The identity shift is the same trick NetworkX uses
   to force convergence on graphs whose dominant eigenvalue is not
   unique.

   The matvec runs as a gather over those rows: on a transpose they list
   v's in-neighbours in exactly the order the historical sequential edge
   scatter visited them, so every x'(v) is the same float summation
   sequence and the sweep is bitwise identical to the scatter it
   replaced — while touching two flat int arrays instead of chasing list
   cells.  With [pool] the rows are chunked across domains; each x'(v)
   is still written by exactly one chunk in the same order, so
   sequential and parallel sweeps agree bitwise at every pool size. *)
let matvec_chunk_nodes = 256

let eigenvector_csr ?pool (m : Csr.t) =
  let n = m.Csr.n in
  if n = 0 then [||]
  else begin
    let sweeps = ref 0 in
    Rca_obs.Obs.span' "centrality.eigenvector"
      (fun _ -> [ ("nodes", Rca_obs.Obs.Int n); ("sweeps", Rca_obs.Obs.Int !sweeps) ])
    @@ fun () ->
    let row = m.Csr.row and col = m.Csr.col in
    let gather_range x x' lo hi =
      for v = lo to hi - 1 do
        let acc = ref x.(v) in
        for i = row.(v) to row.(v + 1) - 1 do
          acc := !acc +. x.(col.(i))
        done;
        x'.(v) <- !acc
      done
    in
    let sweep =
      match pool with
      (* Single-chunk sweeps gain nothing from the pool but pay a
         barrier per iteration (and there are up to [max_iter] of
         them); below one chunk of rows, sweep inline.  Each x'(v) is
         written identically either way. *)
      | Some p when Pool.size p > 1 && n > matvec_chunk_nodes ->
          let chunks = (n + matvec_chunk_nodes - 1) / matvec_chunk_nodes in
          fun x x' ->
            ignore
              (Pool.run_chunks p ~chunks (fun c ->
                   let lo = c * matvec_chunk_nodes in
                   let hi = min n (lo + matvec_chunk_nodes) in
                   gather_range x x' lo hi))
      | _ -> fun x x' -> gather_range x x' 0 n
    in
    (* Each sweep normalizes x' into x in place: the operations of
       [l2_normalize] and of the L1 change, in the same order, without a
       fresh array per sweep. *)
    let x = Array.make n (1.0 /. float_of_int n) in
    let x' = Array.make n 0.0 in
    let converged = ref false in
    while (not !converged) && !sweeps < max_iter do
      incr sweeps;
      sweep x x';
      let sq = ref 0.0 in
      for i = 0 to n - 1 do
        sq := !sq +. (x'.(i) *. x'.(i))
      done;
      let s = sqrt !sq in
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        let y = if s > 0.0 then x'.(i) /. s else x'.(i) in
        delta := !delta +. abs_float (y -. x.(i));
        x.(i) <- y
      done;
      converged := !delta < tol *. float_of_int n
    done;
    x
  end

let eigenvector ?(direction = In) ?pool g =
  let csr = Csr.of_digraph g in
  eigenvector_csr ?pool (match direction with In -> Csr.transpose csr | Out -> csr)

(* PageRank with damping [pagerank_d]; dangling mass is redistributed
   uniformly.  Eigenvector centrality "is related to PageRank" (paper
   Section 5.3) and this implementation backs that comparison. *)
let pagerank g =
  let d = pagerank_d in
  let n = Digraph.n g in
  if n = 0 then [||]
  else begin
    let nf = float_of_int n in
    let x = Array.make n (1.0 /. nf) in
    let outdeg = Array.init n (fun v -> Digraph.out_degree g v) in
    let rec iterate k =
      if k = 0 then ()
      else begin
        let dangling = ref 0.0 in
        for v = 0 to n - 1 do
          if outdeg.(v) = 0 then dangling := !dangling +. x.(v)
        done;
        let base = ((1.0 -. d) /. nf) +. (d *. !dangling /. nf) in
        let x' = Array.make n base in
        Digraph.iter_edges
          (fun u v -> x'.(v) <- x'.(v) +. (d *. x.(u) /. float_of_int outdeg.(u)))
          g;
        let delta = ref 0.0 in
        for i = 0 to n - 1 do
          delta := !delta +. abs_float (x'.(i) -. x.(i));
          x.(i) <- x'.(i)
        done;
        if !delta >= pagerank_tol then iterate (k - 1)
      end
    in
    iterate max_iter;
    x
  end

(* Hashimoto non-backtracking centrality (supplementary 8.1).

   The non-backtracking matrix B acts on directed edges:
   B[(u->v),(w->x)] = 1 iff v = w and x <> u.  We power-iterate on the edge
   vector and collapse to nodes with c_i = sum over out-edges (i->q) of
   v_(i->q).  For in-centrality the graph is reversed first, mirroring the
   paper's use of A^T. *)
let non_backtracking ?(direction = In) g =
  let g = match direction with In -> Digraph.reverse g | Out -> g in
  let n = Digraph.n g in
  let edge_arr = Array.of_list (Digraph.edges g) in
  let m = Array.length edge_arr in
  if m = 0 then Array.make n 0.0
  else begin
    (* out_edge_ids.(v) = ids of edges leaving v, in [Digraph] adjacency
       order (= ascending edge id, since [Digraph.edges] lists each
       node's out-edges consecutively in [succ] order).  Building by
       cons alone would visit out-edges in *reverse* adjacency order,
       which permutes the float accumulation below — the deterministic-
       summation convention of the CSR eigenvector path fixes adjacency
       order, so each cons list is reversed back into it. *)
    let out_edge_ids = Array.make n [] in
    Array.iteri (fun e (u, _) -> out_edge_ids.(u) <- e :: out_edge_ids.(u)) edge_arr;
    Array.iteri (fun v ids -> out_edge_ids.(v) <- List.rev ids) out_edge_ids;
    let x = Array.make m (1.0 /. float_of_int m) in
    let rec iterate k =
      if k = 0 then ()
      else begin
        let x' = Array.make m 0.0 in
        (* v'(u->v) = sum over (v->w), w<>u of v(v->w): gather formulation
           of x' = B x with B as defined above (out-neighbors of an edge). *)
        Array.iteri
          (fun e (u, v) ->
            List.iter
              (fun e' ->
                let _, w = edge_arr.(e') in
                if w <> u then x'.(e) <- x'.(e) +. x.(e'))
              out_edge_ids.(v))
          edge_arr;
        let x'' = l2_normalize x' in
        let delta = ref 0.0 in
        for i = 0 to m - 1 do
          delta := !delta +. abs_float (x''.(i) -. x.(i));
          x.(i) <- x''.(i)
        done;
        if !delta >= tol *. float_of_int m then iterate (k - 1)
      end
    in
    iterate max_iter;
    let c = Array.make n 0.0 in
    Array.iteri (fun e (u, _) -> c.(u) <- c.(u) +. x.(e)) edge_arr;
    c
  end

(* Nodes ranked by descending score; ties broken by node id so rankings are
   reproducible. *)
let rank scores =
  let idx = Array.init (Array.length scores) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare scores.(b) scores.(a) in
      if c <> 0 then c else compare a b)
    idx;
  idx

let top_k scores k =
  let ranked = rank scores in
  let k = min k (Array.length ranked) in
  Array.to_list (Array.sub ranked 0 k) |> List.map (fun v -> (v, scores.(v)))
