(* Per-instruction def/use facts.

   Each CFG instruction yields the variables it reads (uses) and writes
   (defs), resolved through {!Scope}.  Two refinements matter for the
   diagnostics downstream:

   - defs are [strong] when they certainly overwrite the whole variable
     (scalar assignment, do-header index, an actual passed to an
     intent(out) formal) and weak otherwise (indexed or member writes —
     arrays and derived types are atomic, so element writes only *add* a
     definition); only strong defs kill in reaching definitions and only
     strong defs can be reported as dead stores;

   - uses are [reportable] when a diagnostic may be attached to them.
     Havoc uses coming from [Unparsed] statements and from calls to
     unknown procedures keep values live and suppress use-before-def
     escalation, but produce no reports themselves. *)

open Rca_fortran

type origin =
  | From_assign  (* scalar / array / member assignment lhs *)
  | From_loop  (* do-header index variable *)
  | From_call  (* actual argument written by a callee *)
  | From_havoc  (* unparsed statement or unknown procedure *)

type use_site = { u_var : Scope.var; u_line : int; u_reportable : bool }

type def_site = { d_var : Scope.var; d_line : int; d_strong : bool; d_origin : origin }

type fact = { uses : use_site list; defs : def_site list }

type acc = { mutable uses_rev : use_site list; mutable defs_rev : def_site list }

let add_use acc ?(reportable = true) v line =
  acc.uses_rev <- { u_var = v; u_line = line; u_reportable = reportable } :: acc.uses_rev

let add_def acc ?(origin = From_assign) v line strong =
  acc.defs_rev <- { d_var = v; d_line = line; d_strong = strong; d_origin = origin } :: acc.defs_rev

(* Name resolution priority mirrors the metagraph builder: declared
   variable first, then callable, then intrinsic, then implicit local. *)
let rec expr_uses ss acc ~line ~reportable (e : Ast.expr) =
  match e with
  | Ast.Enum _ | Ast.Eint _ | Ast.Elogical _ | Ast.Estring _ -> ()
  | Ast.Eun (_, e) -> expr_uses ss acc ~line ~reportable e
  | Ast.Ebin (_, a, b) ->
      expr_uses ss acc ~line ~reportable a;
      expr_uses ss acc ~line ~reportable b
  | Ast.Erange (a, b) ->
      Option.iter (expr_uses ss acc ~line ~reportable) a;
      Option.iter (expr_uses ss acc ~line ~reportable) b
  | Ast.Edesig d -> desig_uses ss acc ~line ~reportable d

and desig_uses ss acc ~line ~reportable (d : Ast.designator) =
  match d with
  | Ast.Dname n -> add_use acc ~reportable (Scope.resolve ss n line) line
  | Ast.Dmember (base, field) ->
      chain_index_uses ss acc ~line ~reportable base;
      add_use acc ~reportable
        (Scope.resolve_member ss (Ast.designator_base base) field line)
        line
  | Ast.Dindex (Ast.Dname n, args) ->
      if Scope.is_metagraph_variable ss n then begin
        (* array reference: the array is atomic, indices are real reads *)
        add_use acc ~reportable (Scope.resolve ss n line) line;
        List.iter (expr_uses ss acc ~line ~reportable) args
      end
      else if Scope.callables ss n <> [] then
        function_call_uses ss acc ~line ~reportable n args
      else if Visibility.is_intrinsic n then
        List.iter (expr_uses ss acc ~line ~reportable) args
      else begin
        (* undeclared indexed name: implicit local, indices still read *)
        add_use acc ~reportable (Scope.resolve ss n line) line;
        List.iter (expr_uses ss acc ~line ~reportable) args
      end
  | Ast.Dindex (base, args) ->
      (* indexed member chain, e.g. state%q(i,k): atomic member node *)
      desig_uses ss acc ~line ~reportable base;
      List.iter (expr_uses ss acc ~line ~reportable) args

(* index expressions buried in a member chain's base, e.g. the [ie] of
   [elem(ie)%derived%omega_p] *)
and chain_index_uses ss acc ~line ~reportable = function
  | Ast.Dname _ -> ()
  | Ast.Dindex (d, args) ->
      chain_index_uses ss acc ~line ~reportable d;
      List.iter (expr_uses ss acc ~line ~reportable) args
  | Ast.Dmember (d, _) -> chain_index_uses ss acc ~line ~reportable d

(* f(args) in expression position: args are read; a candidate whose formal
   is written flows back into the actual (weak — evaluation order and
   candidate choice are uncertain). *)
and function_call_uses ss acc ~line ~reportable name args =
  List.iter (expr_uses ss acc ~line ~reportable) args;
  let cands = Scope.callables ss name in
  List.iter
    (fun (c : Visibility.callable) ->
      List.iteri
        (fun i formal ->
          match
            (Scope.formal_summary ss.Scope.ss_sums c formal, List.nth_opt args i)
          with
          | Some { Scope.fs_writes = true; _ }, Some (Ast.Edesig d) ->
              add_def acc ~origin:From_call (lhs_var ss d line) line false
          | _ -> ())
        c.Visibility.c_sub.Ast.s_args)
    cands

(* The variable an assignment-like write targets, mirroring the
   metagraph's [lhs_node]. *)
and lhs_var ss (d : Ast.designator) line : Scope.var =
  match d with
  | Ast.Dname n -> Scope.resolve ss n line
  | Ast.Dindex (Ast.Dname n, _) -> Scope.resolve ss n line
  | Ast.Dmember (base, field) -> Scope.resolve_member ss (Ast.designator_base base) field line
  | Ast.Dindex (Ast.Dmember (base, field), _) ->
      Scope.resolve_member ss (Ast.designator_base base) field line
  | Ast.Dindex (inner, _) -> (
      match inner with
      | Ast.Dname n -> Scope.resolve ss n line
      | _ ->
          Scope.resolve_member ss (Ast.designator_base inner)
            (Ast.designator_canonical inner) line)

(* reads performed by the lhs itself: every index expression in the chain *)
let lhs_index_uses ss acc ~line (d : Ast.designator) =
  let rec go = function
    | Ast.Dname _ -> ()
    | Ast.Dindex (d, args) ->
        go d;
        List.iter (expr_uses ss acc ~line ~reportable:true) args
    | Ast.Dmember (d, _) -> go d
  in
  go d

let lhs_is_strong = function Ast.Dname _ -> true | _ -> false

(* ---- call statements --------------------------------------------------------- *)

let intent_of (c : Visibility.callable) formal =
  List.find_opt (fun (d : Ast.decl) -> d.Ast.d_name = formal) c.Visibility.c_sub.Ast.s_decls
  |> Option.map (fun d -> d.Ast.d_intent)
  |> Option.join

(* Effective per-formal behaviour at a call site: the syntactic summary
   refines the declared intent when available. *)
let formal_effect ss (c : Visibility.callable) formal =
  match Scope.formal_summary ss.Scope.ss_sums c formal with
  | Some { Scope.fs_reads; fs_writes } -> (fs_reads, fs_writes)
  | None -> (
      match intent_of c formal with
      | Some Ast.In -> (true, false)
      | Some Ast.Out -> (false, true)
      | Some Ast.Inout | None -> (true, true))

let call_stmt_facts ss acc ~line name args =
  match name with
  | "outfld" -> List.iter (expr_uses ss acc ~line ~reportable:true) args
  | "random_number" -> (
      match args with
      | [ Ast.Edesig d ] ->
          lhs_index_uses ss acc ~line d;
          add_def acc ~origin:From_call (lhs_var ss d line) line (lhs_is_strong d)
      | _ -> ())
  | _ -> (
      let cands = Scope.callables ss name in
      if cands = [] then
        (* unknown procedure: havoc — read every argument, weakly write
           every designator argument *)
        List.iter
          (fun a ->
            expr_uses ss acc ~line ~reportable:false a;
            match a with
            | Ast.Edesig d ->
                add_def acc ~origin:From_havoc (lhs_var ss d line) line false
            | _ -> ())
          args
      else
        (* union the effects over candidates; a write is strong only when
           the actual is a plain name and every candidate certainly
           defines the whole formal (intent(out), or a summary that
           writes without reading first) *)
        List.iteri
          (fun i actual ->
            let reads = ref false and writes = ref false and all_certain = ref true in
            let any_formal = ref false in
            List.iter
              (fun (c : Visibility.callable) ->
                match List.nth_opt c.Visibility.c_sub.Ast.s_args i with
                | None -> ()  (* arity mismatch: this candidate has no formal here *)
                | Some formal ->
                    any_formal := true;
                    let r, w = formal_effect ss c formal in
                    if r then reads := true;
                    if w then writes := true;
                    let certain =
                      w
                      && (intent_of c formal = Some Ast.Out || not r)
                    in
                    if not certain then all_certain := false)
              cands;
            if !any_formal then begin
              (* index expressions of a written designator are still reads *)
              (match actual with
              | Ast.Edesig d when !writes && not !reads ->
                  lhs_index_uses ss acc ~line d
              | _ -> ());
              if !reads then expr_uses ss acc ~line ~reportable:true actual;
              if !writes then
                match actual with
                | Ast.Edesig d ->
                    add_def acc ~origin:From_call (lhs_var ss d line) line
                      (lhs_is_strong d && !all_certain)
                | _ -> ()
            end
            else
              (* extra actual beyond every candidate's formals: evaluated,
                 hence read *)
              expr_uses ss acc ~line ~reportable:true actual)
          args)

(* ---- havoc ------------------------------------------------------------------- *)

(* An [Unparsed] statement may read and write any declared variable it
   mentions: non-reportable uses keep values live, weak defs avoid
   downstream use-before-def noise, and neither produces diagnostics. *)
let havoc_facts ss acc ~line raw =
  List.iter
    (fun id ->
      if Scope.is_metagraph_variable ss id then begin
        let v = Scope.resolve ss id line in
        add_use acc ~reportable:false v line;
        add_def acc ~origin:From_havoc v line false
      end)
    (Relaxed.scrape_identifiers raw)

(* ---- entry point ------------------------------------------------------------- *)

let of_instr (ss : Scope.sub_scope) (ins : Cfg.instr) : fact =
  let acc = { uses_rev = []; defs_rev = [] } in
  (match ins with
  | Cfg.Simple st -> (
      let line = st.Ast.line in
      match st.Ast.node with
      | Ast.Assign (d, rhs) ->
          expr_uses ss acc ~line ~reportable:true rhs;
          lhs_index_uses ss acc ~line d;
          add_def acc ~origin:From_assign (lhs_var ss d line) line (lhs_is_strong d)
      | Ast.Call (name, args) -> call_stmt_facts ss acc ~line name args
      | Ast.Print args -> List.iter (expr_uses ss acc ~line ~reportable:true) args
      | Ast.Unparsed raw -> havoc_facts ss acc ~line raw
      | _ -> ())
  | Cfg.Cond (e, line) -> expr_uses ss acc ~line ~reportable:true e
  | Cfg.Do_header { dvar; dlo; dhi; dstep; dline } ->
      expr_uses ss acc ~line:dline ~reportable:true dlo;
      expr_uses ss acc ~line:dline ~reportable:true dhi;
      Option.iter (expr_uses ss acc ~line:dline ~reportable:true) dstep;
      add_def acc ~origin:From_loop (Scope.resolve ss dvar dline) dline true
  | Cfg.Select_header { selector; case_values; sline } ->
      expr_uses ss acc ~line:sline ~reportable:true selector;
      List.iter (expr_uses ss acc ~line:sline ~reportable:true) case_values);
  { uses = List.rev acc.uses_rev; defs = List.rev acc.defs_rev }

(* Facts for a whole CFG, indexed like [cfg.blocks]. *)
let of_cfg (ss : Scope.sub_scope) (cfg : Cfg.t) : fact array array =
  Array.map (Array.map (of_instr ss)) cfg.Cfg.blocks
