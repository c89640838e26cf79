(* Edge-traversal pruning — the extension the paper proposes in Section
   5.4's third caveat: "we need to develop a method to track edge
   traversal and remove invalid paths". *)

(* A pruned copy of the metagraph: same nodes and metadata, only the
   edges with at least one originating statement satisfying
   [line_executed].  Edges with no recorded origin are kept
   conservatively. *)
val executed_only :
  Metagraph.t ->
  line_executed:(module_:string -> sub:string -> line:int -> bool) ->
  Metagraph.t

type stats = { edges_before : int; edges_after : int }

val prune_stats : Metagraph.t -> Metagraph.t -> stats
