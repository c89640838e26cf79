(** Sampling detectors for the iterative refinement: given the
    instrumented nodes, which show value differences between the ensemble
    and the experimental run? *)

module MG := Rca_metagraph.Metagraph

type t = int list -> int list
(** sampled node ids -> subset observed to differ *)

val reachability : MG.t -> bug_nodes:int list -> t
(** The paper's simulated sampling (Section 6): a node detects a
    difference iff a directed path leads from a known bug location to
    it. *)

val of_differing_set : int list -> t
(** Detector from an explicit set of differing nodes (e.g. a runtime
    sampling comparison). *)

val never : t
(** Detects nothing — drives pure 8a elimination. *)
