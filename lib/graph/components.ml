(* Connected components.

   The paper works with weakly connected components: the directed subgraph
   is symmetrized before community detection, and residual clusters smaller
   than a threshold are dropped from the plots. *)

(* Labels nodes with component ids 0..k-1 following edges in both
   directions; returns (labels, component count). *)
let weakly_connected_labels g =
  let n = Digraph.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if label.(s) = -1 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        let visit v =
          if label.(v) = -1 then begin
            label.(v) <- c;
            Queue.add v q
          end
        in
        List.iter visit (Digraph.succ g u);
        List.iter visit (Digraph.pred g u)
      done
    end
  done;
  (label, !next)

let weakly_connected_components g =
  let label, k = weakly_connected_labels g in
  let comps = Array.make k [] in
  for v = Digraph.n g - 1 downto 0 do
    comps.(label.(v)) <- v :: comps.(label.(v))
  done;
  Array.to_list comps

let count_weakly_connected g = snd (weakly_connected_labels g)

(* Masked-CSR variant: weak components of the subgraph induced on the
   alive nodes, without materializing it.  [rev] is the frozen graph's
   transpose.  Scanning seeds in ascending id order and bucketing each
   component ascending reproduces exactly what
   [weakly_connected_components (induced_subgraph g alive_nodes)] yields
   after mapping back to parent ids (the induced subgraph renumbers an
   ascending node list ascending, so discovery order agrees). *)
let weakly_connected_components_csr (csr : Csr.t) ~rev ~alive =
  let n = csr.Csr.n in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for s = 0 to n - 1 do
    if Csr.mask_mem alive s && label.(s) = -1 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        let visit_row (t : Csr.t) =
          for i = t.Csr.row.(u) to t.Csr.row.(u + 1) - 1 do
            let v = t.Csr.col.(i) in
            if Csr.mask_mem alive v && label.(v) = -1 then begin
              label.(v) <- c;
              Queue.add v q
            end
          done
        in
        visit_row csr;
        visit_row rev
      done
    end
  done;
  let comps = Array.make !next [] in
  for v = n - 1 downto 0 do
    if label.(v) <> -1 then comps.(label.(v)) <- v :: comps.(label.(v))
  done;
  Array.to_list comps
