(* The KGen side of the AVX2 experiment (paper Section 6.4): extract the
   micro_mg_tend kernel, replay it with FMA off and on, and flag the local
   variables whose normalized RMS difference exceeds 1e-12 — the "ground
   truth" set the centrality ranking is then checked against. *)

open Rca_synth
module MG = Rca_metagraph.Metagraph

type t = {
  flagged : Rca_interp.Kernel.divergence list;  (* divergent kernel variables *)
  top_central : (string * float) list;  (* top in-centrality of the core community *)
  flagged_in_top : string list;  (* flagged variables appearing in the top list *)
}

(* Capture micro_mg_tend inputs during a control run of the full model. *)
let capture_kernel (fixture : Fixture.t) =
  let opts = Model.default_opts fixture.Fixture.config in
  Rca_interp.Kernel.capture ~program:fixture.Fixture.clean_program
    ~configure:(fun m ->
      Rca_rng.Prng.reseed opts.Model.prng opts.Model.prng_seed;
      m.Rca_interp.Machine.prng <- opts.Model.prng;
      Rca_interp.Machine.set_module_var m ~module_:"state_mod" ~name:"ic_amp"
        (Rca_interp.Machine.Vreal opts.Model.perturb_amp);
      Rca_interp.Machine.set_module_var m ~module_:"state_mod" ~name:"ic_phase"
        (Rca_interp.Machine.Vreal opts.Model.perturb_phase))
    ~drive:(fun m ->
      ignore
        (Rca_interp.Machine.invoke m ~module_:"cam_driver" ~sub:"cam_run"
           ~args:[ Rca_interp.Machine.Vint opts.Model.nsteps ]))
    ~module_:"micro_mg" ~sub:"micro_mg_tend"

let kgen_flags (fixture : Fixture.t) =
  let cap = capture_kernel fixture in
  let replay fma =
    Rca_interp.Kernel.replay ~program:fixture.Fixture.clean_program
      ~configure:(fun m -> Rca_interp.Machine.set_fma m ~enabled:fma ~disabled:[])
      cap
  in
  Rca_interp.Kernel.divergent ~threshold:1e-12 (replay false) (replay true)

(* Top-k eigenvector in-centrality nodes of the community containing
   micro_mg, within the AVX2 slice. *)
let top_central_of_core (report : Harness.report) ~k =
  let mg = report.Harness.fixture.Fixture.mg in
  match report.Harness.pipeline.Rca_core.Pipeline.result.Rca_core.Refine.iterations with
  | [] -> []
  | it :: _ ->
      let is_core comm =
        List.exists (fun id -> (MG.node mg id).MG.module_ = "micro_mg") comm
      in
      let core =
        match List.filter is_core it.Rca_core.Refine.communities with
        | c :: _ -> c
        | [] -> (
            match it.Rca_core.Refine.communities with c :: _ -> c | [] -> [])
      in
      Rca_core.Refine.centrality_ranking mg core
      |> List.filteri (fun i _ -> i < k)
      |> List.map (fun (id, s) -> ((MG.node mg id).MG.unique, s))

let top_k = 15 (* length of the in-centrality list checked *)

let analyze (report : Harness.report) : t =
  let flagged = kgen_flags report.Harness.fixture in
  let top_central = top_central_of_core report ~k:top_k in
  let flagged_names = List.map (fun d -> d.Rca_interp.Kernel.var) flagged in
  (* unique names are canonical__scope: strip the suffix at the last "__" *)
  let canonical_of_unique unique =
    let rec find_sep i =
      if i <= 0 then None
      else if unique.[i] = '_' && unique.[i - 1] = '_' then Some (i - 1)
      else find_sep (i - 1)
    in
    match find_sep (String.length unique - 1) with
    | Some i -> String.sub unique 0 i
    | None -> unique
  in
  let flagged_in_top =
    List.filter_map
      (fun (unique, _) ->
        let canonical = canonical_of_unique unique in
        if List.mem canonical flagged_names then Some canonical else None)
      top_central
    |> List.sort_uniq compare
  in
  { flagged; top_central; flagged_in_top }

let pp ppf (t : t) =
  Format.fprintf ppf "KGen-flagged variables (normalized RMS > 1e-12): %s@."
    (String.concat ", " (List.map (fun d -> d.Rca_interp.Kernel.var) t.flagged));
  Format.fprintf ppf "Top in-centrality of the core community:@.";
  List.iter
    (fun (name, score) -> Format.fprintf ppf "  (%s, %.6f)@." name score)
    t.top_central;
  Format.fprintf ppf "flagged variables in the top list: %s@."
    (String.concat ", " t.flagged_in_top)
