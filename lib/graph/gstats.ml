(* Graph statistics behind Figures 4, 9 and 10: degree distributions of the
   full model digraph and of experiment subgraphs, and the power-law
   exponent estimates used to argue the graphs are approximately
   scale-free.  Degrees are total (in + out) degrees throughout. *)

let degrees g =
  Array.init (Digraph.n g) (fun v -> Digraph.in_degree g v + Digraph.out_degree g v)

(* Histogram of degree frequencies: (degree, count) for every occurring
   degree, ascending. *)
let degree_histogram g =
  let deg = degrees g in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun d -> Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    deg;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare

(* Complementary cumulative distribution P(D >= d), the standard way to
   visualize heavy tails. *)
let degree_ccdf g =
  let hist = degree_histogram g in
  let total = float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 hist) in
  let rec build remaining = function
    | [] -> []
    | (d, c) :: rest ->
        (d, float_of_int remaining /. total) :: build (remaining - c) rest
  in
  build (List.fold_left (fun a (_, c) -> a + c) 0 hist) hist

(* Discrete maximum-likelihood power-law exponent (Clauset, Shalizi &
   Newman 2009, eq. 3.7 approximation): alpha = 1 + n / sum ln(d/(xmin-1/2))
   over degrees d >= [xmin]. *)
let xmin = 2

let power_law_alpha g =
  let deg = degrees g in
  let xs = Array.to_list deg |> List.filter (fun d -> d >= xmin) in
  let n = List.length xs in
  if n = 0 then None
  else begin
    let denom =
      List.fold_left
        (fun acc d -> acc +. log (float_of_int d /. (float_of_int xmin -. 0.5)))
        0.0 xs
    in
    if denom <= 0.0 then None else Some (1.0 +. (float_of_int n /. denom))
  end

type summary = {
  nodes : int;
  edges : int;
  max_degree : int;
  mean_degree : float;
  components : int;
  alpha : float option;  (* power-law exponent estimate *)
}

let summarize g =
  let deg = degrees g in
  let nodes = Digraph.n g in
  let max_degree = Array.fold_left max 0 deg in
  let mean_degree =
    if nodes = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 deg) /. float_of_int nodes
  in
  {
    nodes;
    edges = Digraph.m g;
    max_degree;
    mean_degree;
    components = Components.count_weakly_connected g;
    alpha = power_law_alpha g;
  }

let pp_summary ppf s =
  Format.fprintf ppf "nodes=%d edges=%d max_deg=%d mean_deg=%.2f wcc=%d alpha=%s"
    s.nodes s.edges s.max_degree s.mean_degree s.components
    (match s.alpha with None -> "n/a" | Some a -> Printf.sprintf "%.2f" a)

(* Rank-vs-score series for Figure 11: nodes sorted by descending |score|,
   returned as (rank, |score|) with rank starting at 1. *)
let rank_series scores =
  let xs = Array.map abs_float scores in
  Array.sort (fun a b -> compare b a) xs;
  Array.to_list (Array.mapi (fun i s -> (i + 1, s)) xs)
