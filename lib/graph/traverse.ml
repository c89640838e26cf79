(* Breadth-first traversals and the reachability primitives behind the
   paper's hybrid slicing (Section 5.1).

   The paper computes "all BFS shortest paths terminating on a target
   variable" and takes the union of their node sets.  For a fixed target t,
   every node from which t is reachable lies on the shortest path from
   itself to t, so that union is exactly the ancestor set of t, which is
   what slicing computes. *)

let no_dist = -1

(* Distances from a set of sources following successor edges. *)
let bfs_dist g sources =
  let n = Digraph.n g in
  let dist = Array.make n no_dist in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Traverse.bfs_dist: bad source";
      if dist.(s) = no_dist then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = no_dist then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Digraph.succ g u)
  done;
  dist

(* Distances *to* a set of targets: BFS along predecessor edges. *)
let bfs_dist_rev g targets =
  let n = Digraph.n g in
  let dist = Array.make n no_dist in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Traverse.bfs_dist_rev: bad target";
      if dist.(s) = no_dist then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    targets;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = no_dist then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Digraph.pred g u)
  done;
  dist

let mark_to_list mark =
  let acc = ref [] in
  for v = Array.length mark - 1 downto 0 do
    if mark.(v) <> no_dist then acc := v :: !acc
  done;
  !acc

(* --- masked-CSR variants ----------------------------------------------------

   The same BFS primitives over a frozen CSR restricted to a node-alive
   mask: the distances (and hence ancestor sets) equal those of the
   subgraph induced on the alive nodes, with no subgraph materialization.
   Dead sources are skipped — they are simply "not in the subgraph",
   matching how the list-based reference (test/oracle) filters targets
   through [Digraph.sub_of_parent]. *)

let bfs_dist_csr (csr : Csr.t) ~alive sources =
  let n = csr.Csr.n in
  let dist = Array.make n no_dist in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Traverse.bfs_dist_csr: bad source";
      if Csr.mask_mem alive s && dist.(s) = no_dist then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    sources;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for i = csr.Csr.row.(u) to csr.Csr.row.(u + 1) - 1 do
      let v = csr.Csr.col.(i) in
      if Csr.mask_mem alive v && dist.(v) = no_dist then begin
        dist.(v) <- dist.(u) + 1;
        Queue.add v q
      end
    done
  done;
  dist

(* Distances *to* the targets over the masked CSR.  [rev] must be the
   transpose of the frozen graph ({!Csr.transpose}), computed once and
   reused — a reverse BFS is a forward BFS on it. *)
let bfs_dist_rev_csr ~rev ~alive targets = bfs_dist_csr rev ~alive targets

(* Ancestors of the alive targets among the alive nodes, ascending —
   [ancestors] of the induced subgraph, in parent ids, without building
   it. *)
let ancestors_csr ~rev ~alive targets = mark_to_list (bfs_dist_rev_csr ~rev ~alive targets)

let descendants g sources = mark_to_list (bfs_dist g sources)

(* Ancestors of the targets, targets included: the node set of the union of
   all shortest directed paths terminating on a target. *)
let ancestors g targets = mark_to_list (bfs_dist_rev g targets)
