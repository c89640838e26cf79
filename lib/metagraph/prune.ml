(* Edge-traversal pruning — the extension the paper proposes in Section
   5.4's third caveat: "we need to develop a method to track edge
   traversal and remove invalid paths".

   Every metagraph edge carries the (module, subprogram, line) of the
   statements that created it.  Given line-level execution data (from the
   coverage recorder, which the paper's Intel tool provided only
   unreliably — our interpreter-driven recorder is exact), an edge is
   *traversed* when at least one of its originating statements executed.
   Dropping untraversed edges removes the static-slice imprecision of
   paths through unexecuted branches. *)

(* A pruned copy of the metagraph: same nodes and metadata, only the
   edges whose originating statements satisfy [line_executed]. *)
let executed_only (mg : Metagraph.t)
    ~(line_executed : module_:string -> sub:string -> line:int -> bool) : Metagraph.t =
  let g = mg.Metagraph.graph in
  let g' = Rca_graph.Digraph.create ~size_hint:(Rca_graph.Digraph.n g) () in
  if Rca_graph.Digraph.n g > 0 then Rca_graph.Digraph.ensure_node g' (Rca_graph.Digraph.n g - 1);
  let origins' = Hashtbl.create (Hashtbl.length mg.Metagraph.edge_origins) in
  Rca_graph.Digraph.iter_edges
    (fun u v ->
      let origins = Metagraph.edge_origins mg u v in
      let traversed =
        List.filter
          (fun (module_, sub, line) -> line_executed ~module_ ~sub ~line)
          origins
      in
      (* edges with no recorded origin (none exist today, but stay safe)
         are kept conservatively *)
      if traversed <> [] || origins = [] then begin
        Rca_graph.Digraph.add_edge g' u v;
        Hashtbl.replace origins' (u, v) traversed
      end)
    g;
  {
    Metagraph.graph = g';
    node_meta = mg.Metagraph.node_meta;
    by_key = mg.Metagraph.by_key;
    by_canonical = mg.Metagraph.by_canonical;
    io_map = mg.Metagraph.io_map;
    edge_origins = origins';
    stats = mg.Metagraph.stats;
  }

type stats = { edges_before : int; edges_after : int }

let prune_stats (before : Metagraph.t) (after : Metagraph.t) =
  {
    edges_before = Rca_graph.Digraph.m before.Metagraph.graph;
    edges_after = Rca_graph.Digraph.m after.Metagraph.graph;
  }
