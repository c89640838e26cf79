(* KGen substitute (paper Section 6.4): extract one subprogram invocation
   as a standalone kernel, replay it under different machine configurations
   and flag variables whose values diverge.

   The paper used KGen to pull the Morrison–Gettelman microphysics out of
   CAM, run it with AVX2/FMA on and off, and flag the 42 local variables
   whose normalized RMS difference exceeded 1e-12.  Here [capture] records
   the kernel's inputs (formal argument values plus every module variable)
   at its first call during a full model run, and [replay] re-executes just
   the kernel on those inputs on a fresh machine. *)

open Rca_fortran

type capture = {
  k_module : string;
  k_sub : string;
  formals : (string * Machine.value) list;  (* deep-copied entry values *)
  globals : (string * (string * Machine.value) list) list;
      (* per module: its own variables, deep-copied *)
}

exception Captured

let fail fmt = Printf.ksprintf (fun s -> raise (Machine.Runtime_error s)) fmt

(* Deep copies of a module's own variables (imported cells are aliases
   of some module's own cell). *)
let copies tbl = Hashtbl.fold (fun name cell acc -> (name, Machine.copy_value !cell) :: acc) tbl []
let own_values (mrt : Machine.module_rt) = copies mrt.Machine.own_vars

(* The machine's module-level state, own variables only. *)
let snapshot_globals (machine : Machine.t) program =
  List.filter_map
    (fun (mu : Ast.module_unit) ->
      Option.map
        (fun mrt -> (mu.Ast.m_name, List.sort compare (own_values mrt)))
        (Hashtbl.find_opt machine.modules mu.Ast.m_name))
    program

(* Run [drive machine] until the first call of [module_.sub], capture
   its inputs, and abort the run. *)
let capture ~program ~configure ~drive ~module_ ~sub =
  let machine = Machine.create program in
  configure machine;
  let result = ref None in
  machine.Machine.hooks.Machine.on_call <-
    Some
      (fun m s locals ->
        if m = module_ && s = sub then begin
          let formals = List.sort compare (copies locals) in
          result :=
            Some { k_module = module_; k_sub = sub; formals; globals = snapshot_globals machine program };
          raise Captured
        end);
  (try drive machine with Captured -> ());
  match !result with
  | Some c -> c
  | None -> fail "kernel %s.%s was never called" module_ sub

(* Replay the captured kernel on a fresh machine configured by
   [configure]; returns every local variable's exit value. *)
let replay ~program ~configure (c : capture) : (string * Machine.value) list =
  let machine = Machine.create program in
  configure machine;
  List.iter
    (fun (module_, vars) ->
      List.iter
        (fun (name, v) ->
          match
            Option.bind (Hashtbl.find_opt machine.Machine.modules module_) (fun mrt ->
                Hashtbl.find_opt mrt.Machine.own_vars name)
          with
          | Some cell -> cell := Machine.copy_value v
          | None -> fail "captured variable %s.%s is not in the replayed program" module_ name)
        vars)
    c.globals;
  let exit_locals = ref [] in
  let depth = ref 0 in
  machine.Machine.hooks.Machine.on_call <-
    Some (fun m s _ -> if m = c.k_module && s = c.k_sub then incr depth);
  machine.Machine.hooks.Machine.on_return <-
    Some
      (fun m s locals ->
        if m = c.k_module && s = c.k_sub then begin
          decr depth;
          if !depth = 0 && !exit_locals = [] then exit_locals := copies locals
        end);
  (* captured formals are stored sorted by name; invoke is positional *)
  let arg_order =
    match Option.bind (Ast.find_module program c.k_module) (fun mu -> Ast.find_subprogram mu c.k_sub) with
    | Some s -> s.Ast.s_args
    | None -> List.map fst c.formals
  in
  let args =
    List.map
      (fun name ->
        match List.assoc_opt name c.formals with
        | Some v -> Machine.copy_value v
        | None -> fail "captured kernel is missing formal %s" name)
      arg_order
  in
  ignore (Machine.invoke machine ~module_:c.k_module ~sub:c.k_sub ~args);
  (* KGen compares the kernel's whole working set: the subprogram's locals
     plus the kernel module's own variables (the MG tendencies live at
     module scope). *)
  let module_vars =
    Option.fold ~none:[] ~some:own_values (Hashtbl.find_opt machine.Machine.modules c.k_module)
  in
  List.sort compare (!exit_locals @ module_vars)

(* Normalized RMS difference between two values of the same variable:
   ||a - b||_2 / max(||a||_2, tiny).  [None] for non-numeric values. *)
let normalized_rms a b =
  let vec = function
    | Machine.Vreal f -> Some [| f |]
    | Machine.Vint i -> Some [| float_of_int i |]
    | Machine.Varr arr -> Some arr.Machine.data
    | Machine.Vlog _ | Machine.Vstr _ | Machine.Vderived _ -> None
  in
  match (vec a, vec b) with
  | Some xa, Some xb when Array.length xa = Array.length xb ->
      let diff = ref 0.0 and norm = ref 0.0 in
      Array.iteri
        (fun i x ->
          let d = x -. xb.(i) in
          diff := !diff +. (d *. d);
          norm := !norm +. (x *. x))
        xa;
      let scale = Float.max (sqrt !norm) 1e-300 in
      Some (sqrt !diff /. scale)
  | _ -> None

type divergence = { var : string; rms : float }

(* Variables whose normalized RMS difference between the two replays
   exceeds [threshold] (paper: 1e-12), sorted by decreasing difference. *)
let divergent ?(threshold = 1e-12) locals_a locals_b =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) locals_b;
  List.filter_map
    (fun (n, va) ->
      match Hashtbl.find_opt tbl n with
      | None -> None
      | Some vb -> (
          match normalized_rms va vb with
          | Some rms when rms > threshold -> Some { var = n; rms }
          | _ -> None))
    locals_a
  |> List.sort (fun a b -> compare b.rms a.rms)
