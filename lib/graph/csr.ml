(* Frozen CSR snapshot of a Digraph.

   Arc ids follow Digraph.iter_edges order: iter_edges walks nodes in
   ascending order and each succ list front to back, and the rows are
   filled by that same walk, so slot order within a row equals succ-list
   order and global slot order equals iteration order.  Every kernel
   that needs adjacency-order-compatible float accumulation relies on
   this. *)

type t = {
  n : int;
  m : int;
  row : int array;
  col : int array;
  src : int array;
  rev : int array;
}

(* Reverse-arc ids via one (u, v) -> id table pass; a self-loop maps to
   itself. *)
let compute_rev ~m ~col ~src =
  let ids = Hashtbl.create (max 16 (2 * m)) in
  for i = 0 to m - 1 do
    Hashtbl.replace ids (src.(i), col.(i)) i
  done;
  Array.init m (fun i ->
      match Hashtbl.find_opt ids (col.(i), src.(i)) with
      | Some j -> j
      | None -> -1)

let of_digraph g =
  let n = Digraph.n g in
  let m = Digraph.m g in
  let row = Array.make (n + 1) 0 in
  let col = Array.make m 0 in
  let src = Array.make m 0 in
  let cursor = ref 0 in
  for u = 0 to n - 1 do
    row.(u) <- !cursor;
    List.iter
      (fun v ->
        col.(!cursor) <- v;
        src.(!cursor) <- u;
        incr cursor)
      (Digraph.succ g u)
  done;
  row.(n) <- !cursor;
  assert (!cursor = m);
  { n; m; row; col; src; rev = compute_rev ~m ~col ~src }

(* Rebuild a CSR from serialized row/col arrays (the snapshot loader's
   path: no digraph walk, just src recomputation and the rev table).
   Slot order inside each row is whatever the arrays say — for a
   snapshot that is the original succ-list order, so the result is
   bitwise identical to [of_digraph] on the original graph. *)
let of_rows ~row ~col =
  let n = Array.length row - 1 in
  if n < 0 then invalid_arg "Csr.of_rows: row array must have length >= 1";
  let m = Array.length col in
  if row.(0) <> 0 || row.(n) <> m then invalid_arg "Csr.of_rows: row bounds mismatch";
  let src = Array.make m 0 in
  for u = 0 to n - 1 do
    if row.(u + 1) < row.(u) then invalid_arg "Csr.of_rows: row array not monotone";
    for i = row.(u) to row.(u + 1) - 1 do
      if col.(i) < 0 || col.(i) >= n then invalid_arg "Csr.of_rows: col out of range";
      src.(i) <- u
    done
  done;
  { n; m; row = Array.copy row; col = Array.copy col; src; rev = compute_rev ~m ~col ~src }

let transpose t =
  let n = t.n and m = t.m in
  let row = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    row.(t.col.(i) + 1) <- row.(t.col.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v + 1) + row.(v)
  done;
  let cursor = Array.init n (fun v -> row.(v)) in
  let col = Array.make m 0 in
  let src = Array.make m 0 in
  (* walking arcs in id order (ascending source) fills each transposed
     row in ascending-source order *)
  for i = 0 to m - 1 do
    let v = t.col.(i) in
    let slot = cursor.(v) in
    cursor.(v) <- slot + 1;
    col.(slot) <- t.src.(i);
    src.(slot) <- v
  done;
  { n; m; row; col; src; rev = compute_rev ~m ~col ~src }

(* --- node-alive masks ------------------------------------------------------

   A mask is one byte per node ('\001' alive).  Together with the frozen
   CSR (and its transpose) it expresses "the subgraph induced on these
   nodes" without materializing anything: the masked kernels below simply
   skip dead endpoints, so node removal is a byte flip instead of an
   induced-subgraph rebuild. *)

type mask = Bytes.t

let full_mask t = Bytes.make t.n '\001'

let mask_of_list t nodes =
  let m = Bytes.make t.n '\000' in
  List.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Csr.mask_of_list: node out of range";
      Bytes.unsafe_set m v '\001')
    nodes;
  m

let mask_mem m v = Bytes.unsafe_get m v <> '\000'

let mask_to_list m =
  let acc = ref [] in
  for v = Bytes.length m - 1 downto 0 do
    if Bytes.unsafe_get m v <> '\000' then acc := v :: !acc
  done;
  !acc

(* Arcs with both endpoints alive — the induced subgraph's edge count,
   without building it.  O(sum of alive out-degrees). *)
let alive_arcs t m =
  let c = ref 0 in
  for u = 0 to t.n - 1 do
    if mask_mem m u then
      for i = t.row.(u) to t.row.(u + 1) - 1 do
        if mask_mem m t.col.(i) then incr c
      done
  done;
  !c

let out_degree t u = t.row.(u + 1) - t.row.(u)

let arc_id t u v =
  if u < 0 || u >= t.n then -1
  else begin
    let found = ref (-1) in
    let i = ref t.row.(u) in
    let stop = t.row.(u + 1) in
    while !found = -1 && !i < stop do
      if t.col.(!i) = v then found := !i;
      incr i
    done;
    !found
  end

let iter_arcs f t =
  for i = 0 to t.m - 1 do
    f i t.src.(i) t.col.(i)
  done
