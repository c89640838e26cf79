(* Breadth-first traversals and the reachability primitives behind the
   paper's hybrid slicing (Section 5.1).

   The paper computes "all BFS shortest paths terminating on a target
   variable" and takes the union of their node sets.  For a fixed target t,
   every node from which t is reachable lies on the shortest path from
   itself to t, so that union is exactly the ancestor set of t; we expose
   both the ancestor formulation (used for slicing) and explicit
   shortest-path-DAG extraction (used to report individual paths). *)

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

let descendants_csr (csr : Csr.t) ~alive sources =
  mark_to_list (bfs_dist_csr csr ~alive sources)

(* Ancestors of the alive targets among the alive nodes, ascending —
   [ancestors] of the induced subgraph, in parent ids, without building
   it. *)
let ancestors_csr ~rev ~alive targets = mark_to_list (bfs_dist_rev_csr ~rev ~alive targets)

let descendants g sources = mark_to_list (bfs_dist g sources)

(* Ancestors of the targets, targets included: the node set of the union of
   all shortest directed paths terminating on a target. *)
let ancestors g targets = mark_to_list (bfs_dist_rev g targets)

let reachable g ~from ~target =
  let dist = bfs_dist g [ from ] in
  dist.(target) <> no_dist

(* Does any directed path lead from a source to any target?  This is the
   simulated-sampling detection test of Section 6: an instrumented node
   detects a difference iff it is reachable from a bug location. *)
let any_path g ~sources ~targets =
  let dist = bfs_dist g sources in
  List.exists (fun t -> dist.(t) <> no_dist) targets

(* One shortest path from [src] to [dst], as a node list, if any. *)
let shortest_path g ~src ~dst =
  let n = Digraph.n g in
  let parent = Array.make n no_dist in
  let seen = Array.make n false in
  let q = Queue.create () in
  seen.(src) <- true;
  Queue.add src q;
  let rec drain () =
    if Queue.is_empty q then None
    else
      let u = Queue.pop q in
      if u = dst then Some u
      else begin
        List.iter
          (fun v ->
            if not seen.(v) then begin
              seen.(v) <- true;
              parent.(v) <- u;
              Queue.add v q
            end)
          (Digraph.succ g u);
        drain ()
      end
  in
  match drain () with
  | None -> None
  | Some _ ->
      let rec build v acc = if v = src then v :: acc else build parent.(v) (v :: acc) in
      Some (build dst [])

(* Nodes lying on at least one shortest path from any source to any target.
   The criterion is per target: v is on a shortest source-to-t path iff
   d(sources, v) + d(v, t) = d(sources, t) — one reverse BFS per reachable
   target.  (A single global minimum over all targets silently dropped
   every node on a shortest path to a farther target.)  Used to extract
   the purple "path segments" the paper draws between bug locations and
   sampled nodes. *)
let shortest_path_dag_nodes g ~sources ~targets =
  let n = Digraph.n g in
  let dfwd = bfs_dist g sources in
  let keep = Array.make n false in
  List.iter
    (fun t ->
      if t < 0 || t >= n then invalid_arg "Traverse.shortest_path_dag_nodes: bad target";
      if dfwd.(t) <> no_dist then begin
        let dt = bfs_dist_rev g [ t ] in
        for v = 0 to n - 1 do
          if dfwd.(v) <> no_dist && dt.(v) <> no_dist && dfwd.(v) + dt.(v) = dfwd.(t)
          then keep.(v) <- true
        done
      end)
    (List.sort_uniq compare targets);
  let acc = ref [] in
  for v = n - 1 downto 0 do
    if keep.(v) then acc := v :: !acc
  done;
  !acc

(* Topological order (Kahn); [None] when the graph has a directed cycle. *)
let topological_order g =
  let n = Digraph.n g in
  let indeg = Array.init n (fun v -> Digraph.in_degree g v) in
  let q = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v q) indeg;
  let order = ref [] and count = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr count;
    order := u :: !order;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      (Digraph.succ g u)
  done;
  if !count = n then Some (List.rev !order) else None
