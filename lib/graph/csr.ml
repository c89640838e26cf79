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

(* Arc ids grouped by target with a counting sort: the arcs into [v] are
   [ids.(start.(v)) .. ids.(start.(v + 1) - 1)], ascending. *)
let by_target ~n ~col =
  let m = Array.length col in
  let start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    start.(col.(i) + 1) <- start.(col.(i) + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let ids = Array.make m 0 in
  for i = 0 to m - 1 do
    let v = col.(i) in
    ids.(start.(v)) <- i;
    start.(v) <- start.(v) + 1
  done;
  (* filling advanced each bucket's start to its end: shift them back *)
  Array.blit start 0 start 1 n;
  start.(0) <- 0;
  (start, ids)

(* Reverse-arc ids without a lookup table: walk the rows in order,
   stamping each target of row [v] with its slot in [last]; an arc
   (u, v) has its reverse exactly when [last.(u)] points into row [v]
   (earlier rows only ever stamp slots below [row.(v)]).  A self-loop
   maps to itself. *)
let compute_rev ~n ~row ~col ~src =
  let start, ids = by_target ~n ~col in
  let last = Array.make n (-1) in
  let rev = Array.make (Array.length col) (-1) in
  for v = 0 to n - 1 do
    for j = row.(v) to row.(v + 1) - 1 do
      last.(col.(j)) <- j
    done;
    for k = start.(v) to start.(v + 1) - 1 do
      let i = ids.(k) in
      let j = last.(src.(i)) in
      if j >= row.(v) then rev.(i) <- j
    done
  done;
  rev

(* Complete a CSR from its row offsets and columns. *)
let of_row_col ~n ~row ~col =
  let m = Array.length col in
  let src = Array.make m 0 in
  for u = 0 to n - 1 do
    Array.fill src row.(u) (row.(u + 1) - row.(u)) u
  done;
  { n; m; row; col; src; rev = compute_rev ~n ~row ~col ~src }

(* A CSR from a function presenting each row's columns in slot order:
   one pass sizes the rows, a second fills them. *)
let of_row_iter n iter_row =
  let row = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    let d = ref 0 in
    iter_row x (fun _ -> incr d);
    row.(x + 1) <- row.(x) + !d
  done;
  let col = Array.make row.(n) 0 in
  let cursor = ref 0 in
  for x = 0 to n - 1 do
    iter_row x (fun v ->
        col.(!cursor) <- v;
        incr cursor)
  done;
  of_row_col ~n ~row ~col

let of_digraph g = of_row_iter (Digraph.n g) (fun u f -> List.iter f (Digraph.succ g u))

(* Arc ids ascend within each target, so every transposed row lists its
   sources ascending. *)
let transpose t =
  let row, ids = by_target ~n:t.n ~col:t.col in
  of_row_col ~n:t.n ~row ~col:(Array.map (fun i -> t.src.(i)) ids)

(* Rows in the order the interface states, which is how symmetrizing an
   induced subgraph of ascending nodes lays them out: that subgraph's
   succ lists are the parent rows reversed (add_edge prepends), and
   symmetrizing prepends again.  The transpose's rows list in-neighbours
   ascending, and its reverse arcs tell which are also out-neighbours. *)
let undirected t ~rev =
  let iter_row x f =
    for j = rev.row.(x + 1) - 1 downto rev.row.(x) do
      let u = rev.col.(j) in
      if u > x && rev.rev.(j) < 0 then f u
    done;
    for j = t.row.(x) to t.row.(x + 1) - 1 do
      let w = t.col.(j) in
      if w >= x || t.rev.(j) < 0 then f w
    done;
    for j = rev.row.(x + 1) - 1 downto rev.row.(x) do
      let u = rev.col.(j) in
      if u < x then f u
    done
  in
  of_row_iter t.n iter_row

(* Index lookup in the strictly ascending [verts] ([v]'s index, or -1)
   through at most [k] buckets of 2^shift consecutive ids: [first.(b)] is
   the first index in bucket [b] or later, and a lookup scans one bucket.
   Sized by the cut, and O(1) per lookup on average where a binary
   search over [verts] is O(log k). *)
let local_ids verts =
  let k = Array.length verts in
  if k = 0 then fun _ -> -1
  else begin
    let lo = verts.(0) and hi = verts.(k - 1) in
    let shift = ref 0 in
    while (hi - lo) lsr !shift >= k do
      incr shift
    done;
    let shift = !shift in
    let first = Array.make (((hi - lo) lsr shift) + 2) k in
    for i = k - 1 downto 0 do
      first.((verts.(i) - lo) lsr shift) <- i
    done;
    for b = Array.length first - 2 downto 0 do
      first.(b) <- Int.min first.(b) first.(b + 1)
    done;
    fun v ->
      if v < lo || v > hi then -1
      else begin
        let i = ref first.((v - lo) lsr shift) in
        while verts.(!i) < v do
          incr i
        done;
        if verts.(!i) = v then !i else -1
      end
  end

(* Both passes over the kept rows look every column up in the bucket
   index: nothing is allocated at the parent's size, so cutting many
   small subgraphs from a large snapshot stays cheap. *)
let induced t verts =
  Array.iteri
    (fun i v ->
      if v < 0 || v >= t.n || (i > 0 && verts.(i - 1) >= v) then
        invalid_arg "Csr.induced: nodes must be strictly ascending and in range")
    verts;
  let local_id = local_ids verts in
  let iter_row i f =
    let u = verts.(i) in
    for j = t.row.(u) to t.row.(u + 1) - 1 do
      let l = local_id t.col.(j) in
      if l >= 0 then f l
    done
  in
  of_row_iter (Array.length verts) iter_row

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
