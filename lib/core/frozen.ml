(* The masked refinement engine's substrate: one CSR snapshot of the
   metagraph (plus its transpose), frozen once per Pipeline.run and
   shared by slicing and every refinement iteration.  Node ids are the
   metagraph's own ids — no renumbering, no to_parent maps — and the
   current subgraph is a node-alive bitmask, so the removals of steps
   8a/8b, drop_small_clusters and static pruning are byte flips instead
   of Digraph.induced_subgraph rebuilds.

   Everything here is bit-compatible with the list-based path: the
   masked BFS/component kernels return the same node sets in the same
   (ascending) order, and [induced_sub] replays Digraph.induced_subgraph's
   exact add_edge sequence (CSR row order = succ-list order), so the
   community/centrality kernels downstream accumulate floats in the same
   order and produce bitwise-identical results.  The list-based path
   lives in test/oracle as the differential reference, next to the
   hashtable Brandes the CSR kernel is checked against. *)

module G = Rca_graph

type t = {
  csr : G.Csr.t;  (* frozen snapshot, arc ids in iter_edges order *)
  rev : G.Csr.t;  (* transpose, for reverse (ancestor) traversals *)
}

let freeze g =
  Rca_obs.Obs.span "frozen.freeze" @@ fun () ->
  let csr = G.Csr.of_digraph g in
  { csr; rev = G.Csr.transpose csr }

(* Wrap an already-materialized CSR (a snapshot loader's, typically):
   same transpose construction as [freeze], no digraph walk. *)
let of_csr csr = { csr; rev = G.Csr.transpose csr }

let n t = t.csr.G.Csr.n

let mask_of_list t nodes = G.Csr.mask_of_list t.csr nodes
let full_mask t = G.Csr.full_mask t.csr

(* Ancestors of [targets] within the alive nodes, ascending — what an
   induced-subgraph rebuild plus reverse BFS computes, without the
   rebuild. *)
let ancestors t ~alive targets = G.Traverse.ancestors_csr ~rev:t.rev ~alive targets

(* Distance-to-targets array over the alive nodes; callers that need the
   visited set as marks (step 8a's kill set) read it directly. *)
let ancestor_dist t ~alive targets =
  G.Traverse.bfs_dist_rev_csr ~rev:t.rev ~alive targets

let components t ~alive =
  G.Components.weakly_connected_components_csr t.csr ~rev:t.rev ~alive

let alive_arcs t alive = G.Csr.alive_arcs t.csr alive

(* The induced subgraph of [nodes], built from the frozen rows.  Same
   contract as Digraph.induced_subgraph (dedup keeps the first
   occurrence; succ lists come out reversed relative to the parent
   because add_edge prepends) and the same add_edge call sequence, so
   the result is structurally bitwise identical — membership is an int
   array instead of a hashtable probe per scanned arc. *)
let induced_sub t nodes =
  let csr = t.csr in
  let n = csr.G.Csr.n in
  let sub_id = Array.make n (-1) in
  let count = ref 0 in
  let uniq =
    List.fold_left
      (fun acc v ->
        if v < 0 || v >= n then invalid_arg "Frozen.induced_sub: node out of range";
        if sub_id.(v) >= 0 then acc
        else begin
          sub_id.(v) <- !count;
          incr count;
          v :: acc
        end)
      [] nodes
    |> List.rev
  in
  let to_parent = Array.of_list uniq in
  let k = Array.length to_parent in
  let g = G.Digraph.create ~size_hint:(max k 1) () in
  if k > 0 then G.Digraph.ensure_node g (k - 1);
  Array.iteri
    (fun i v ->
      for s = csr.G.Csr.row.(v) to csr.G.Csr.row.(v + 1) - 1 do
        let j = sub_id.(csr.G.Csr.col.(s)) in
        if j >= 0 then G.Digraph.add_edge g i j
      done)
    to_parent;
  let of_parent = Hashtbl.create (2 * max k 1) in
  Array.iteri (fun i v -> Hashtbl.replace of_parent v i) to_parent;
  { G.Digraph.graph = g; to_parent; of_parent }
