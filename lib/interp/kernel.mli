(** KGen substitute (paper Section 6.4): extract one subprogram invocation
    as a standalone kernel, replay it under different machine
    configurations, and flag the variables whose values diverge. *)

type capture = {
  k_module : string;
  k_sub : string;
  formals : (string * Machine.value) list;  (** deep-copied entry values *)
  globals : (string * (string * Machine.value) list) list;
      (** per module: its own variables at capture time *)
}

val capture :
  program:Rca_fortran.Ast.program ->
  configure:(Machine.t -> unit) ->
  drive:(Machine.t -> unit) ->
  module_:string ->
  sub:string ->
  capture
(** Run [drive] on a fresh configured machine until the first call of
    [module_.sub]; snapshot its inputs and abort the run.  Raises
    {!Machine.Runtime_error} if the kernel is never called. *)

val replay :
  program:Rca_fortran.Ast.program ->
  configure:(Machine.t -> unit) ->
  capture ->
  (string * Machine.value) list
(** Re-execute just the kernel on the captured inputs; returns every local
    variable and kernel-module variable at exit. *)

val normalized_rms : Machine.value -> Machine.value -> float option
(** [||a - b||_2 / max(||a||_2, tiny)]; [None] for non-numeric values. *)

type divergence = { var : string; rms : float }

val divergent :
  ?threshold:float ->
  (string * Machine.value) list ->
  (string * Machine.value) list ->
  divergence list
(** Variables whose normalized RMS difference between two replays exceeds
    [threshold] (paper: 1e-12), sorted by decreasing difference. *)
