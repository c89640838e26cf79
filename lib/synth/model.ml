(* Assembly of the synthetic model: core modules + generated fillers +
   the time-stepping driver, plus the run API used by the ECT harness and
   the experiments.

   [generate] produces the full "source tree" (including unbuilt modules);
   [build_filter] plays KGen's role of identifying the modules actually
   compiled into the executable (the use-closure of the driver);
   [run] executes the model on the interpreter and returns the history
   (output name -> value at the final time step). *)

open Rca_fortran

type sources = {
  config : Config.t;
  files : (string * string) list;  (* filename, source; the whole tree *)
  filler : Filler.generated;
  driver_module : string;
}

let driver_source (filler : Filler.generated) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  pr "module cam_driver";
  pr "  use shr_kind_mod, only: r8 => shr_kind_r8";
  pr "  use ppgrid";
  pr "  use physconst";
  pr "  use state_mod";
  pr "  use pbuf_mod";
  pr "  use dyn_comp";
  pr "  use dyn3_mod";
  pr "  use wv_saturation";
  pr "  use micro_mg";
  pr "  use microp_aero";
  pr "  use cldfrc_mod";
  pr "  use ccn_mod";
  pr "  use rad_lw_mod";
  pr "  use rad_sw_mod";
  pr "  use srf_flux_mod";
  pr "  use lnd_comp_mod";
  pr "  use diag_mod";
  List.iter (fun m -> pr "  use %s" m) filler.Filler.phys_modules;
  List.iter (fun m -> pr "  use %s" m) filler.Filler.dyn_modules;
  (* unused modules are pulled into the build but never called *)
  List.iter (fun m -> pr "  use %s" m) filler.Filler.unused_modules;
  pr "  implicit none";
  pr "  integer :: nstep_count = 0";
  pr "contains";
  pr "  subroutine cam_run(nsteps)";
  pr "    integer, intent(in) :: nsteps";
  pr "    integer :: n";
  pr "    call state_init()";
  pr "    call dyn3_init()";
  pr "    do n = 1, nsteps";
  pr "      call pbuf_reset()";
  List.iter (fun m -> pr "      call %s_tend()" m) filler.Filler.dyn_modules;
  pr "      call dyn_run(dtime)";
  pr "      call dyn3_run()";
  List.iter (fun m -> pr "      call %s_tend()" m) filler.Filler.phys_modules;
  pr "      call cldfrc_run()";
  pr "      call micro_mg_tend(dtime)";
  pr "      call ccn_run()";
  pr "      call rad_lw_run()";
  pr "      call rad_sw_run()";
  pr "      call physics_update(dtime)";
  pr "      call microp_aero_run()";
  pr "      call srf_flux_run()";
  pr "      call lnd_run(dtime)";
  pr "      call diag_run()";
  pr "      nstep_count = nstep_count + 1";
  pr "    end do";
  pr "  end subroutine cam_run";
  pr "end module cam_driver";
  Buffer.contents buf

let generate (config : Config.t) : sources =
  let filler = Filler.generate config in
  let core =
    [
      Core_modules.shr_kind_mod config;
      Core_modules.physconst config;
      Core_modules.ppgrid config;
      Core_modules.gmean_mod config;
      Core_modules.physics_types config;
      Core_modules.pbuf_mod config;
      Core_modules.state_mod config;
      Core_modules.dyn_comp config;
      Core_modules.dyn3_mod config;
      Core_modules.wv_saturation config;
      Core_modules.microp_aero config;
      Core_modules.cldfrc_mod config;
      Core_modules.ccn_mod config;
      Phys_modules.micro_mg config;
      Phys_modules.rad_lw config;
      Phys_modules.rad_sw config;
      Phys_modules.srf_flux config;
      Phys_modules.lnd_comp config;
      Phys_modules.diag_mod config;
    ]
  in
  let files = core @ filler.Filler.files @ [ ("cam_driver.F90", driver_source filler) ] in
  { config; files; filler; driver_module = "cam_driver" }

(* Apply a textual bug injection: replace [from_] with [to_] in the named
   file.  The pattern must occur exactly once, counted left to right
   without overlap: an ambiguous pattern raises instead of silently
   patching the first hit, which would let a bug land on the wrong line
   without any signal.  Raises [Invalid_argument] if the file is unknown
   or the pattern is empty, absent or ambiguous. *)
let occurrences ~pattern src =
  let flen = String.length pattern and slen = String.length src in
  if flen = 0 then invalid_arg "Model.inject: empty pattern";
  let rec scan i acc =
    if i + flen > slen then List.rev acc
    else if String.sub src i flen = pattern then scan (i + flen) (i :: acc)
    else scan (i + 1) acc
  in
  scan 0 []

let inject ~file ~from_ ~to_ (s : sources) : sources =
  if not (List.mem_assoc file s.files) then
    invalid_arg (Printf.sprintf "Model.inject: no file %s in the source tree" file);
  let files =
    List.map
      (fun (name, src) ->
        if name <> file then (name, src)
        else
          match occurrences ~pattern:from_ src with
          | [ i ] ->
              let rest = i + String.length from_ in
              (name, String.sub src 0 i ^ to_ ^ String.sub src rest (String.length src - rest))
          | [] ->
              invalid_arg
                (Printf.sprintf "Model.inject: pattern %S not found in %s" from_ file)
          | occs ->
              invalid_arg
                (Printf.sprintf "Model.inject: pattern %S is ambiguous in %s (%d occurrences)"
                   from_ file (List.length occs)))
      s.files
  in
  { s with files }

(* Line-based injection: rewrite line [line] (1-based, as the parser
   counts them) of [file] through [f], which receives the line without its
   terminator.  Used by the fault-corpus generator, whose sites come from
   AST/dataflow line numbers rather than unique substrings.  Raises if the
   file or line does not exist, or if [f] returns the line unchanged (the
   injection would be a silent no-op). *)
let inject_line ~file ~line ~f (s : sources) : sources =
  if not (List.mem_assoc file s.files) then
    invalid_arg (Printf.sprintf "Model.inject_line: no file %s in the source tree" file);
  let files =
    List.map
      (fun (name, src) ->
        if name <> file then (name, src)
        else begin
          let lines = String.split_on_char '\n' src in
          if line < 1 || line > List.length lines then
            invalid_arg
              (Printf.sprintf "Model.inject_line: %s has no line %d" file line);
          let changed = ref false in
          let lines =
            List.mapi
              (fun i l ->
                if i + 1 = line then begin
                  let l' = f l in
                  if l' <> l then changed := true;
                  l'
                end
                else l)
              lines
          in
          if not !changed then
            invalid_arg
              (Printf.sprintf "Model.inject_line: no-op rewrite of %s:%d" file line);
          (name, String.concat "\n" lines)
        end)
      s.files
  in
  { s with files }

let parse_program ?(strict = false) (s : sources) : Ast.program =
  List.concat_map (fun (file, src) -> Parser.parse_file ~strict ~file src) s.files

(* The build closure (KGen's role): modules reachable through use
   statements from the driver.  Everything else is "not compiled into the
   executable". *)
let build_filter (prog : Ast.program) ~driver : Ast.program =
  let by_name = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace by_name m.Ast.m_name m) prog;
  let keep = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem keep name) then
      match Hashtbl.find_opt by_name name with
      | None -> ()
      | Some m ->
          Hashtbl.replace keep name ();
          List.iter (fun u -> visit u.Ast.u_module) m.Ast.m_uses
  in
  visit driver;
  List.filter (fun m -> Hashtbl.mem keep m.Ast.m_name) prog

type run_opts = {
  perturb_amp : float;  (* initial-condition perturbation amplitude *)
  perturb_phase : float;  (* member-specific phase *)
  prng : Rca_rng.Prng.t;
  prng_seed : int;  (* the stream is reseeded with this at machine creation,
                       so a shared generator value cannot leak state
                       between runs *)
  fma : [ `Off | `On | `On_except of string list ];
  nsteps : int;
}

let default_opts ?(member = 0) (config : Config.t) =
  (* golden-ratio phase spacing decorrelates the perturbation patterns of
     any two member indices, near or far *)
  let golden = 0.61803398874989484 in
  let frac = Float.rem (golden *. float_of_int member) 1.0 in
  {
    perturb_amp = 1e-14;
    perturb_phase = 0.7 +. (6.2831853 *. frac);
    prng = Rca_rng.Kiss.create 8191;
    prng_seed = 8191;
    fma = `Off;
    nsteps = config.Config.nsteps;
  }

(* Build a machine for an already-parsed program. *)
let machine_of program opts =
  Rca_rng.Prng.reseed opts.prng opts.prng_seed;
  let m = Rca_interp.Machine.create ~prng:opts.prng program in
  (match opts.fma with
  | `Off -> Rca_interp.Machine.set_fma m ~enabled:false ~disabled:[]
  | `On -> Rca_interp.Machine.set_fma m ~enabled:true ~disabled:[]
  | `On_except mods -> Rca_interp.Machine.set_fma m ~enabled:true ~disabled:mods);
  Rca_interp.Machine.set_module_var m ~module_:"state_mod" ~name:"ic_amp"
    (Rca_interp.Machine.Vreal opts.perturb_amp);
  Rca_interp.Machine.set_module_var m ~module_:"state_mod" ~name:"ic_phase"
    (Rca_interp.Machine.Vreal opts.perturb_phase);
  m

(* Run the model; returns the machine (history, module state) for
   inspection.  Traced as one [interp.run] span carrying the number of
   statements executed. *)
let run_machine ?(machine_hooks = fun (_ : Rca_interp.Machine.t) -> ()) program opts :
    Rca_interp.Machine.t =
  Rca_obs.Obs.span' "interp.run"
    (fun (m : Rca_interp.Machine.t) -> [ ("statements", Rca_obs.Obs.Int m.Rca_interp.Machine.steps) ])
    (fun () ->
      let m = machine_of program opts in
      machine_hooks m;
      ignore
        (Rca_interp.Machine.invoke m ~module_:"cam_driver" ~sub:"cam_run"
           ~args:[ Rca_interp.Machine.Vint opts.nsteps ]);
      m)

(* Output vector in the order of [Outputs.names]; raises if the run did
   not write one of the catalogued outputs. *)
let output_vector (m : Rca_interp.Machine.t) : float array =
  Outputs.names
  |> List.map (fun name ->
         match Rca_interp.Machine.history_value m name with
         | Some v -> v
         | None -> failwith (Printf.sprintf "Model.output_vector: output %s never written" name))
  |> Array.of_list

let output_names = Array.of_list Outputs.names

(* Convenience: run and return the output vector. *)
let run program opts = output_vector (run_machine program opts)

(* An ensemble of runs differing only in initial-condition perturbation
   phase: rows are members, columns follow [Outputs.names]. *)
let ensemble ~members program config =
  Array.init members (fun member -> run program (default_opts ~member config))
