(* Differential oracle: cross-validate the metagraph builder against an
   independently derived set of static def-use pairs.

   For every statement the oracle derives the (source variable ->
   assigned variable) pairs the metagraph's edge-generation semantics
   promise, but through {!Resolve}'s symbol table and its own statement
   walk, not the builder's.  Each pair's endpoints must resolve through
   [Metagraph.find_node] and the edge must exist; conversely, every
   metagraph edge must be produced by some pair (else it is an orphan).
   On a correct builder both directions are empty. *)

type vref = { r_module : string; r_sub : string; r_name : string }

type pair = {
  p_src : vref;
  p_dst : vref;
  (* provenance of the originating statement *)
  p_file : string;
  p_module : string;
  p_sub : string;
  p_line : int;
}

type mismatch = { mis_pair : pair; mis_reason : string }

type orphan = { o_src : string; o_dst : string; o_origins : (string * string * int) list }

type report = {
  rp_pairs : int;  (* pairs derived (with duplicates collapsed) *)
  rp_edges : int;  (* metagraph edges checked for orphanhood *)
  rp_mismatches : mismatch list;  (* static pairs without a metagraph edge *)
  rp_orphans : orphan list;  (* metagraph edges no static pair explains *)
}

val ok : report -> bool

val check : Scope.program_scope -> Rca_metagraph.Metagraph.t -> report

val report_lines : report -> string list
val summary_json : report -> Rca_obs.Jsonio.t
