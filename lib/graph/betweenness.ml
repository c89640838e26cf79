(* Brandes' algorithm (2001) for edge betweenness on unweighted graphs:
   the engine of Girvan–Newman community detection (paper Section 5.2).

   The kernel runs over a frozen {!Csr.t}: BFS and dependency
   accumulation with a plain [float array] edge accumulator indexed by
   dense arc id, scratch reused across sources (reset in O(visited), so
   a source confined to a small component costs O(n_c + m_c), not O(n)),
   and an arc-alive bitmask so Girvan–Newman can "remove" edges without
   touching the snapshot.  CSR rows list neighbours in exactly
   adjacency-list order, so the kernel is bitwise identical to the
   historical adjacency-list + hashtable implementation, which lives on
   in test/oracle as the differential reference.

   Brandes is embarrassingly parallel over BFS sources: every source's
   contribution is independent, so with a Pool.t the source set is split
   into fixed-size chunks, each chunk accumulates into its own private
   array, and the per-chunk partials are merged by a deterministic tree
   reduction in chunk order.  The chunk structure depends only on the
   source count — never on the pool size — so every pool size >= 2
   produces bitwise-identical results; a sequential run (no pool, or pool
   size 1) sums per source instead of per chunk and can differ from the
   parallel result only in the last ulps of the float accumulations. *)

(* Fixed chunk size: part of the deterministic contract above, so it must
   not depend on the pool size (or results would differ between pool
   sizes). *)
let chunk_sources = 16

(* BFS scratch, reused across sources and reset in O(visited) after each
   one: a BFS confined to a small component touches only that
   component's entries.  Flat arrays only, so a source allocates
   nothing.  [order] is the visit order and doubles as the FIFO.
   Predecessor arc ids go into [pred], grouped by target: node [v]'s
   group is slots [first.(v) .. first.(v + 1) - 1], one per arc into [v]
   (counted from [csr.col] once, here), filled up to [top.(v)].  A
   source records each arc at most once, so no group overflows. *)
type scratch = {
  csr : Csr.t;  (* the CSR the groups were counted from *)
  dist : int array;
  sigma : float array;
  delta : float array;
  order : int array;
  first : int array;
  top : int array;
  pred : int array;
}

let make_scratch (csr : Csr.t) =
  let n = csr.Csr.n in
  let first = Array.make (n + 1) 0 in
  Array.iter (fun v -> first.(v + 1) <- first.(v + 1) + 1) csr.Csr.col;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  {
    csr;
    dist = Array.make n (-1);
    sigma = Array.make n 0.0;
    delta = Array.make n 0.0;
    order = Array.make n 0;
    first;
    top = Array.sub first 0 n;
    pred = Array.make csr.Csr.m 0;
  }

(* One source over CSR.  Neighbour order equals adjacency-list order, so
   the float accumulation sequence — and hence every score — is bitwise
   identical to a hashtable Brandes on the corresponding digraph.  [alive]
   masks arcs out (Girvan–Newman removals).  The dependency pass walks
   [order] and each predecessor group backwards, the order of the
   hashtable Brandes' cons lists, so every float operation runs in the
   same order.  A predecessor arc is never a self-loop, so [u]'s (and
   [w]'s) entries stay fixed while its row (group) is scanned and are
   read once; nodes walked after [w] are no farther from the source and
   read only nearer nodes, so [w] is reset right after its group. *)
let accumulate_from (csr : Csr.t) ~alive scratch ~edge_bc s =
  let { dist; sigma; delta; order; first; top; pred; _ } = scratch in
  let row = csr.Csr.row and col = csr.Csr.col and src = csr.Csr.src in
  dist.(s) <- 0;
  sigma.(s) <- 1.0;
  order.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    let du = dist.(u) + 1 and su = sigma.(u) in
    for i = row.(u) to row.(u + 1) - 1 do
      if Bytes.unsafe_get alive i <> '\000' then begin
        let v = col.(i) in
        let dv = dist.(v) in
        if dv = -1 then begin
          dist.(v) <- du;
          order.(!tail) <- v;
          incr tail
        end;
        if dv = -1 || dv = du then begin
          sigma.(v) <- sigma.(v) +. su;
          pred.(top.(v)) <- i;
          top.(v) <- top.(v) + 1
        end
      end
    done
  done;
  for k = !tail - 1 downto 0 do
    let w = order.(k) in
    let sw = sigma.(w) and dw = 1.0 +. delta.(w) in
    for j = top.(w) - 1 downto first.(w) do
      let i = pred.(j) in
      let u = src.(i) in
      let c = sigma.(u) /. sw *. dw in
      edge_bc.(i) <- edge_bc.(i) +. c;
      delta.(u) <- delta.(u) +. c
    done;
    dist.(w) <- -1;
    sigma.(w) <- 0.0;
    delta.(w) <- 0.0;
    top.(w) <- first.(w)
  done

let add_into into src =
  Array.iteri (fun i v -> into.(i) <- into.(i) +. v) src;
  into

let accumulate ?pool ~alive (csr : Csr.t) scratch sources ~edge_bc =
  let n = csr.Csr.n and m = csr.Csr.m in
  let fail what = invalid_arg ("Betweenness.accumulate: " ^ what) in
  if scratch.csr != csr then fail "scratch made for another CSR";
  if Bytes.length alive <> m then fail "alive length <> arc count";
  if Array.length edge_bc <> m then fail "edge_bc length <> arc count";
  if Array.exists (fun s -> s < 0 || s >= n) sources then fail "source out of range";
  let nsources = Array.length sources in
  Rca_obs.Obs.span
    ~args:[ ("sources", Rca_obs.Obs.Int nsources); ("nodes", Rca_obs.Obs.Int n) ]
    "brandes.accumulate"
  @@ fun () ->
  match pool with
  (* Work-size gate: a single-chunk batch gains nothing from the pool
     (one participant does all the work) but pays the barrier, so it
     runs inline — the same sequential source order either way. *)
  | Some p when Pool.size p > 1 && nsources > chunk_sources ->
      let chunks = (nsources + chunk_sources - 1) / chunk_sources in
      let partials =
        Pool.run_chunks p ~chunks (fun c ->
            let acc = Array.make m 0.0 in
            let scratch = make_scratch csr in
            for i = c * chunk_sources to min nsources ((c + 1) * chunk_sources) - 1 do
              accumulate_from csr ~alive scratch ~edge_bc:acc sources.(i)
            done;
            acc)
      in
      (* Scores are never negative: an arc holding +0.0 takes the merged
         sum bitwise, and an arc no source reached keeps its score. *)
      Option.iter (fun sum -> ignore (add_into edge_bc sum)) (Pool.tree_reduce add_into partials)
  | _ -> Array.iter (accumulate_from csr ~alive scratch ~edge_bc) sources

(* Argmax comparison: a challenger must beat the incumbent by a relative
   1e-9 margin.  The margin absorbs the last-ulp summation-order
   differences between sequential and chunked-parallel betweenness, so
   both pick the same edge; scores that close are treated as a tie and
   the earliest edge in iteration order wins. *)
let beats c ~incumbent = c > incumbent +. (1e-9 *. (1.0 +. abs_float incumbent))

(* The one argmax used everywhere an edge is selected for removal (the
   component-incremental Girvan–Newman engine and the test/oracle
   reference).  [iter] presents
   candidate edges in a fixed order; the incumbent survives near-ties,
   so earlier edges win them.  Keeping the fold in one place means every
   caller resolves ties identically — the property the G-N differential
   tests rely on. *)
let argmax_edge iter =
  let best = ref None in
  iter (fun u v c ->
      match !best with
      | Some (_, _, c') when not (beats c ~incumbent:c') -> ()
      | _ -> best := Some (u, v, c));
  !best
