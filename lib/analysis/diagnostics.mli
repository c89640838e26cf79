(* Lint diagnostics over one analyzed subprogram, and the stable JSON
   report format the CLI emits.

   Severity policy: [Error] marks findings that are wrong under any
   reading of the Fortran standard; [Warning] marks likely bugs a
   conservative analysis cannot promote; [Info] marks hygiene findings.
   `rca_main lint` exits nonzero only on [Error].

   Every diagnostic carries the {!Resolve} symbol id it is about plus
   that symbol's def-site file:line. *)

type severity = Error | Warning | Info

type kind =
  | Use_before_def  (* definite: only the uninitialized entry value reaches *)
  | Use_maybe_uninit  (* some path reaches the use without a definition *)
  | Dead_assignment  (* value certainly never read *)
  | Unused_variable  (* declared, never referenced *)
  | Shadowed_variable  (* local declaration hides the module's own variable *)
  | Shadowed_import  (* local declaration hides a use-imported variable *)
  | Write_to_intent_in
  | Intent_out_never_set  (* also: function result never assigned *)
  | Unreachable_code
  | Undeclared_implicit  (* name resolved only by Fortran implicit typing *)
  | Type_mismatch  (* assignment or operand with incompatible type/rank *)
  | Arity_mismatch  (* call with no matching-arity candidate *)
  | Intent_at_call_site  (* actual argument violates the callee's intent *)

type diag = {
  kind : kind;
  severity : severity;
  dmodule : string;
  dsub : string;
  line : int;
  var : string;  (* "" when the finding has no variable *)
  sym : int;  (* Resolve symbol id the finding is about *)
  def_file : string;  (* that symbol's def site *)
  def_line : int;
  message : string;
}

val kind_name : kind -> string
val all_kinds : kind list

(* ---- provenance helpers (shared with Typecheck / Callcheck) ---- *)

val sub_provenance : Resolve.t -> module_:string -> sub:string -> int * string * int
val var_provenance : Resolve.t -> Scope.var -> int * string * int

(* ---- the dataflow-diagnostics pass ---- *)

val of_sub : Dataflow.t -> diag list

(* ---- aggregation / report ---- *)

val sort_diags : diag list -> diag list
val count_severity : diag list -> severity -> int
val count_kind : diag list -> kind -> int
val has_errors : diag list -> bool

(* Stable report: version, [extra] members, severity/kind summary,
   diagnostics sorted by (module, subprogram, line, kind, variable). *)
val report_json : ?extra:(string * Rca_obs.Jsonio.t) list -> diag list -> Rca_obs.Jsonio.t
