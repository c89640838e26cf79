(* Quickstart: the core library API on a few lines of Fortran.

     dune exec examples/quickstart.exe

   Pipeline: source text -> AST -> variable digraph -> backward slice ->
   communities -> eigenvector in-centrality. *)

module MG = Rca_metagraph.Metagraph
module G = Rca_graph

let source =
  {|
module physics
  use shared_state
  real(r8) :: rate, moisture, heating
contains
  subroutine step()
    rate = temperature * 0.01_r8
    moisture = humidity * rate
    heating = moisture * 2.5_r8 + rate
    temperature = temperature + heating
    call outfld('heat', heating)
  end subroutine step
end module physics

module shared_state
  real(r8) :: temperature, humidity
end module shared_state
|}

let () =
  (* 1. parse the Fortran source (tolerant mode keeps statements the
     structured parser cannot handle and lets the fallback chain recover
     their dependencies) *)
  let program = Rca_fortran.Parser.parse_file ~file:"physics.F90" source in
  Printf.printf "parsed %d modules\n" (List.length program);

  (* 2. compile it into the variable-dependency digraph *)
  let mg = MG.build program in
  Printf.printf "metagraph: %d nodes, %d edges\n" (MG.n_nodes mg)
    (G.Digraph.m mg.MG.graph);
  List.iter
    (fun id ->
      let n = MG.node mg id in
      Printf.printf "  node %-18s (module %s, line %d)\n" n.MG.unique n.MG.module_ n.MG.line)
    (List.init (MG.n_nodes mg) (fun i -> i));

  (* 3. backward-slice on the output written to history ('heat' maps to
     the internal variable `heating` via the outfld instrumentation),
     on a frozen CSR snapshot of the metagraph *)
  let frozen = Rca_core.Frozen.freeze mg.MG.graph in
  let slice = Rca_core.Slice.of_outputs ~frozen mg [ "heat" ] in
  Printf.printf "\nslice for output 'heat': %d nodes\n" (Rca_core.Slice.size slice);
  List.iter (fun name -> Printf.printf "  %s\n" name) (Rca_core.Slice.node_names slice);

  (* 4. Girvan-Newman communities of the slice *)
  let communities =
    Rca_core.Refine.communities_of ~min_community:2 ~frozen slice.Rca_core.Slice.nodes
  in
  Printf.printf "\ncommunities: %d\n" (List.length communities);

  (* 5. eigenvector in-centrality: who aggregates the information flow? *)
  let sub = Rca_core.Slice.subgraph slice in
  let cent = G.Centrality.eigenvector ~direction:G.Centrality.In sub.G.Digraph.graph in
  Printf.printf "\ntop in-centrality nodes (information sinks to sample first):\n";
  List.iter
    (fun (i, score) ->
      let n = MG.node mg (G.Digraph.sub_to_parent sub i) in
      Printf.printf "  %-18s %.4f\n" n.MG.unique score)
    (G.Centrality.top_k cent 3)
