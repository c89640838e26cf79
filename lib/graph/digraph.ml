(* Mutable directed graph over dense integer node ids.

   This is the NetworkX substitute used throughout the pipeline: the
   metagraph compiler produces one of these from the Fortran ASTs, and all
   slicing / community / centrality algorithms consume it.  Nodes are the
   integers [0, n); parallel edges are rejected at insertion time so that
   [m] counts distinct directed edges, matching how the paper reports graph
   sizes. *)

type t = {
  mutable n : int;
  mutable succ : int list array;
  mutable pred : int list array;
  mutable m : int;
  edge_set : (int * int, unit) Hashtbl.t;
}

type sub = {
  graph : t;
  to_parent : int array;
  of_parent : (int, int) Hashtbl.t;
}

let create ?(size_hint = 16) () =
  let cap = max size_hint 1 in
  {
    n = 0;
    succ = Array.make cap [];
    pred = Array.make cap [];
    m = 0;
    edge_set = Hashtbl.create (4 * cap);
  }

let n t = t.n
let m t = t.m

let grow t needed =
  let cap = Array.length t.succ in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let succ' = Array.make cap' [] and pred' = Array.make cap' [] in
    Array.blit t.succ 0 succ' 0 t.n;
    Array.blit t.pred 0 pred' 0 t.n;
    t.succ <- succ';
    t.pred <- pred'
  end

let add_node t =
  grow t (t.n + 1);
  let id = t.n in
  t.n <- t.n + 1;
  id

let ensure_node t v =
  if v < 0 then invalid_arg "Digraph.ensure_node: negative id";
  if v >= t.n then begin
    grow t (v + 1);
    t.n <- v + 1
  end

let check_node t v fn =
  if v < 0 || v >= t.n then invalid_arg (fn ^ ": node out of range")

let mem_edge t u v = Hashtbl.mem t.edge_set (u, v)

let add_edge t u v =
  ensure_node t u;
  ensure_node t v;
  if not (mem_edge t u v) then begin
    Hashtbl.replace t.edge_set (u, v) ();
    t.succ.(u) <- v :: t.succ.(u);
    t.pred.(v) <- u :: t.pred.(v);
    t.m <- t.m + 1
  end

let remove_edge t u v =
  if mem_edge t u v then begin
    Hashtbl.remove t.edge_set (u, v);
    t.succ.(u) <- List.filter (fun w -> w <> v) t.succ.(u);
    t.pred.(v) <- List.filter (fun w -> w <> u) t.pred.(v);
    t.m <- t.m - 1
  end

let succ t v =
  check_node t v "Digraph.succ";
  t.succ.(v)

let pred t v =
  check_node t v "Digraph.pred";
  t.pred.(v)

let out_degree t v = List.length (succ t v)
let in_degree t v = List.length (pred t v)

(* Total degree; in an undirected (symmetrized) graph this counts each
   neighbor once because symmetrization stores both arcs. *)
let degree t v = out_degree t v

let iter_nodes f t =
  for v = 0 to t.n - 1 do
    f v
  done

let iter_edges f t =
  for u = 0 to t.n - 1 do
    List.iter (fun v -> f u v) t.succ.(u)
  done

let fold_edges f t acc =
  let r = ref acc in
  iter_edges (fun u v -> r := f u v !r) t;
  !r

let edges t = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) t [])
let nodes t = List.init t.n (fun v -> v)

let of_edges ~n edge_list =
  let t = create ~size_hint:(max n 1) () in
  if n > 0 then ensure_node t (n - 1);
  List.iter (fun (u, v) -> add_edge t u v) edge_list;
  t

let copy t =
  let t' = create ~size_hint:(max t.n 1) () in
  if t.n > 0 then ensure_node t' (t.n - 1);
  iter_edges (fun u v -> add_edge t' u v) t;
  t'

let reverse t =
  let t' = create ~size_hint:(max t.n 1) () in
  if t.n > 0 then ensure_node t' (t.n - 1);
  iter_edges (fun u v -> add_edge t' v u) t;
  t'

(* Symmetric closure: for community detection the paper converts the
   directed subgraph into its undirected (weakly connected) counterpart. *)
let to_undirected t =
  let t' = create ~size_hint:(max t.n 1) () in
  if t.n > 0 then ensure_node t' (t.n - 1);
  iter_edges
    (fun u v ->
      add_edge t' u v;
      add_edge t' v u)
    t;
  t'

let induced_subgraph t node_list =
  let of_parent = Hashtbl.create (List.length node_list * 2) in
  (* explicit left fold: of_parent ids must follow list order *)
  let uniq =
    List.fold_left
      (fun acc v ->
        check_node t v "Digraph.induced_subgraph";
        if Hashtbl.mem of_parent v then acc
        else begin
          Hashtbl.replace of_parent v (Hashtbl.length of_parent);
          v :: acc
        end)
      [] node_list
    |> List.rev
  in
  let to_parent = Array.of_list uniq in
  let g = create ~size_hint:(max (Array.length to_parent) 1) () in
  if Array.length to_parent > 0 then ensure_node g (Array.length to_parent - 1);
  Array.iteri
    (fun i v ->
      List.iter
        (fun w ->
          match Hashtbl.find_opt of_parent w with
          | Some j -> add_edge g i j
          | None -> ())
        t.succ.(v))
    to_parent;
  { graph = g; to_parent; of_parent }

(* Exact adjacency export/import for snapshot serialization.  Both list
   orders are load-bearing: add_edge prepends, so neither succ nor pred
   order is derivable from the other, and downstream bit-identity
   (kernels walk these lists front to back) depends on reproducing both
   exactly. *)
let adjacency t =
  (Array.init t.n (fun v -> t.succ.(v)), Array.init t.n (fun v -> t.pred.(v)))

let of_adjacency ~n ~succ ~pred =
  if n < 0 then invalid_arg "Digraph.of_adjacency: negative node count";
  if Array.length succ <> n || Array.length pred <> n then
    invalid_arg "Digraph.of_adjacency: adjacency array length mismatch";
  let edge_set = Hashtbl.create (max 16 (4 * n)) in
  let m = ref 0 in
  Array.iteri
    (fun u vs ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Digraph.of_adjacency: target out of range";
          if Hashtbl.mem edge_set (u, v) then
            invalid_arg "Digraph.of_adjacency: duplicate edge";
          Hashtbl.replace edge_set (u, v) ();
          incr m)
        vs)
    succ;
  (* pred must be exactly the transpose of succ (same arc multiset) *)
  let mp = ref 0 in
  Array.iteri
    (fun v us ->
      List.iter
        (fun u ->
          if u < 0 || u >= n || not (Hashtbl.mem edge_set (u, v)) then
            invalid_arg "Digraph.of_adjacency: pred is not the transpose of succ";
          incr mp)
        us)
    pred;
  if !mp <> !m then invalid_arg "Digraph.of_adjacency: pred is not the transpose of succ";
  {
    n;
    succ = (if n = 0 then [| [] |] else Array.copy succ);
    pred = (if n = 0 then [| [] |] else Array.copy pred);
    m = !m;
    edge_set;
  }

let sub_of_parent sub v = Hashtbl.find_opt sub.of_parent v
let sub_to_parent sub i = sub.to_parent.(i)
