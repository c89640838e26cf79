(* Worklist bitvector dataflow over one subprogram's CFG: forward
   reaching definitions (with one entry pseudo-definition per variable)
   and backward liveness (seeded with every escaping variable at the
   exit block).  Weak defs neither kill in RD nor stop liveness. *)

type rd_class = Definite | Maybe

type t = {
  cfg : Cfg.t;
  scope : Scope.sub_scope;
  facts : Defuse.fact array array;
  n_vars : int;
  n_defs : int;  (* pseudo defs [0, n_vars) then real defs *)
  real_defs : Defuse.def_site array;  (* real def k has id n_vars + k *)
  rd_in : Bytes.t array;  (* per block, def-indexed bitsets *)
  live_out : Bytes.t array;  (* per block, var-indexed bitsets *)
}

(* ---- bitset membership (for consumers of [used_vars] etc.) ---- *)

val bs_get : Bytes.t -> int -> bool

(* ---- solver ---- *)

val solve : Scope.sub_scope -> Cfg.t -> Defuse.fact array array -> t

(* ---- derived results ---- *)

type uninit_use = { uu_use : Defuse.use_site; uu_class : rd_class }

(* Reportable uses of uninitialized-at-entry variables whose entry
   pseudo-def survives to the use. *)
val uninit_uses : t -> uninit_use list

(* Strong assignment defs of non-escaping variables never read after. *)
val dead_defs : t -> Defuse.def_site list

type du_pair = { du_def : Defuse.def_site; du_use : Defuse.use_site }

(* Every (real def, use) pair where the def reaches the use. *)
val du_chains : t -> du_pair list

val used_vars : t -> Bytes.t
val defined_vars : t -> Bytes.t
val var_defined : t -> Scope.var -> bool

(* Exposed for tests: live-out variable names of a block. *)
val live_out_names : t -> int -> string list
