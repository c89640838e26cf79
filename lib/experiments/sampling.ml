(* Runtime variable sampling: the genuine-instrumentation counterpart of
   the paper's simulated sampling.

   Given a set of metagraph nodes, instrument the interpreter's assignment
   hook, run one control member (clean build) and one experimental run
   (same initial-condition member, experimental configuration), and report
   which instrumented nodes took different values.  Agreement between this
   detector and graph reachability is the evidence that the static graph
   "accurately characterizes information flow at runtime" (paper §6.4).
   Significance uses the fixed [sigma_factor] = 3 and [rel_tol] = 1e-12
   (see [compare_runs]). *)

open Rca_synth
module MG = Rca_metagraph.Metagraph

let sigma_factor = 3.0
let rel_tol = 1e-12

(* Does an assignment event (module, sub, base var, canonical) write the
   given node?  Locals must match module+subprogram exactly.  Module-level
   nodes (including derived-type components like state%t) are matched by
   canonical name, since the event reports the executing scope rather than
   the defining one — except when the executing subprogram declares its own
   variable of that canonical name (the metagraph has a local node for the
   key), in which case the event belongs to the local, not the module
   variable. *)
let event_matches (mg : MG.t) (node : MG.node) ~module_ ~sub ~var ~canonical =
  ignore var;
  node.MG.canonical = canonical
  &&
  if node.MG.subprogram <> "" then node.MG.module_ = module_ && node.MG.subprogram = sub
  else
    not (Hashtbl.mem mg.MG.by_key (module_ ^ "|" ^ sub ^ "|" ^ canonical))

(* Record the sample stream of each watched node over one run: the count
   of writes and the running sum of written values.  Comparing streams
   (rather than only the final value) matches how FLiT-style samplers
   detect divergence: a node differs when {e any} of its samples does,
   even if a later, unaffected writer overwrites it. *)
type trace = { mutable count : int; mutable sum : float; mutable last : float }

let record_run program opts (mg : MG.t) watched : (int, trace) Hashtbl.t =
  let by_canonical = Hashtbl.create 64 in
  List.iter
    (fun id ->
      let n = MG.node mg id in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_canonical n.MG.canonical) in
      Hashtbl.replace by_canonical n.MG.canonical ((id, n) :: cur))
    watched;
  let values = Hashtbl.create 64 in
  let hooks m =
    m.Rca_interp.Machine.hooks.Rca_interp.Machine.on_assign <-
      Some
        (fun ~module_ ~sub ~line:_ ~var ~canonical value ->
          match Hashtbl.find_opt by_canonical canonical with
          | None -> ()
          | Some nodes ->
              List.iter
                (fun (id, n) ->
                  if event_matches mg n ~module_ ~sub ~var ~canonical then begin
                    let tr =
                      match Hashtbl.find_opt values id with
                      | Some tr -> tr
                      | None ->
                          let tr = { count = 0; sum = 0.0; last = 0.0 } in
                          Hashtbl.replace values id tr;
                          tr
                    in
                    tr.count <- tr.count + 1;
                    tr.sum <- tr.sum +. value;
                    tr.last <- value
                  end)
                nodes)
  in
  ignore (Model.run_machine ~machine_hooks:hooks program opts);
  values

type comparison = {
  node : int;
  control : float option;
  experimental : float option;
  differs : bool;
}

(* Compare watched node values between a control and an experimental run
   of the same ensemble member.  The significance reference is a second
   control member: a node differs when its control-vs-experimental gap
   exceeds [sigma_factor] times its control-vs-control gap (its internal
   variability), the same philosophy as the ECT itself.  [rel_tol] is the
   absolute floor for nodes with no internal variability at all. *)
let compare_runs ~(fixture : Fixture.t) ~(opts : Model.run_opts -> Model.run_opts) watched :
    comparison list =
  let member_opts m = Model.default_opts ~member:m fixture.Fixture.config in
  let control =
    record_run fixture.Fixture.clean_program (member_opts 0) fixture.Fixture.mg watched
  in
  let reference =
    record_run fixture.Fixture.clean_program (member_opts 1) fixture.Fixture.mg watched
  in
  let experimental =
    record_run fixture.Fixture.exp_program (opts (member_opts 0)) fixture.Fixture.mg watched
  in
  let significant ~noise x a b =
    let floor_ = rel_tol *. Float.max (abs_float a) (abs_float b) in
    x > Float.max (sigma_factor *. noise) floor_
  in
  let stream_differs a r b =
    a.count <> b.count
    || significant
         ~noise:(abs_float (a.sum -. r.sum))
         (abs_float (a.sum -. b.sum))
         a.sum b.sum
    || significant
         ~noise:(abs_float (a.last -. r.last))
         (abs_float (a.last -. b.last))
         a.last b.last
  in
  List.map
    (fun id ->
      let c = Hashtbl.find_opt control id
      and r = Hashtbl.find_opt reference id
      and e = Hashtbl.find_opt experimental id in
      let differs =
        match (c, e) with
        | Some a, Some b ->
            let r = Option.value ~default:a r in
            stream_differs a r b
        | Some _, None | None, Some _ -> true  (* executed in only one run *)
        | None, None -> false
      in
      {
        node = id;
        control = Option.map (fun t -> t.last) c;
        experimental = Option.map (fun t -> t.last) e;
        differs;
      })
    watched

(* A [Detector.t] backed by runtime sampling. *)
let detector ~fixture ~opts : Rca_core.Detector.t =
 fun sampled ->
  compare_runs ~fixture ~opts sampled
  |> List.filter_map (fun c -> if c.differs then Some c.node else None)

(* Fraction of nodes on which two detectors agree (used for the
   information-flow validation experiment). *)
let agreement (d1 : Rca_core.Detector.t) (d2 : Rca_core.Detector.t) nodes =
  if nodes = [] then 1.0
  else begin
    let s1 = d1 nodes and s2 = d2 nodes in
    let agree =
      List.length (List.filter (fun v -> List.mem v s1 = List.mem v s2) nodes)
    in
    float_of_int agree /. float_of_int (List.length nodes)
  end
