(* One injectable fault with ground truth.

   A fault is either a source edit (file/line + an injection over the
   generated source tree) or a configuration change (run-option transform:
   FMA flags, PRNG substitution) — the same two shapes the paper's
   experiments take.  Unlike the experiments, every fault also carries
   machine-checkable ground truth: the metagraph nodes its defining
   statements write, which is what the campaign scores localization
   against. *)

open Rca_synth
module MG = Rca_metagraph.Metagraph

type family =
  | Fma  (* fused multiply-add contraction enabled in one module *)
  | Prng  (* generator substitution (lib/rng variants) *)
  | Off_by_one  (* loop lower bound 1 -> 2: first vertical level skipped *)
  | Transposed_index  (* state%x(1, k) read as state%x(k, 1) *)
  | Intent_guard  (* intent(in) dropped and the formal perturbed in place *)
  | Stale_value  (* a later redefinition deleted; earlier value reused *)
  | Coeff  (* module parameter constant scaled by 1.5 *)

let family_name = function
  | Fma -> "fma"
  | Prng -> "prng"
  | Off_by_one -> "off_by_one"
  | Transposed_index -> "transposed_index"
  | Intent_guard -> "intent_guard"
  | Stale_value -> "stale_value"
  | Coeff -> "coeff"

let all_families =
  [ Fma; Prng; Off_by_one; Transposed_index; Intent_guard; Stale_value; Coeff ]

(* Ground-truth target, resolved against a concrete metagraph only once
   the (possibly bugged) source has been compiled into one.  [t_sub =
   Some s] is the exact (module, subprogram, name) key ([s = ""] for
   module-level variables); [t_sub = None] matches by canonical name,
   optionally restricted to [t_module] ([t_module = ""] matches any
   module — used for derived-type members whose owning module is not
   known statically at the fault site). *)
type target = { t_module : string; t_sub : string option; t_name : string }

type t = {
  id : string;  (* "<family>/<site>", unique within a corpus *)
  family : family;
  description : string;
  file : string;  (* "" for configuration faults *)
  line : int;  (* 0 for configuration faults *)
  inject : Model.sources -> Model.sources;
  opts : Model.run_opts -> Model.run_opts;
  expected : target list;
}

let is_source_fault f = f.file <> ""

let resolve_target (mg : MG.t) (tgt : target) : int list =
  match tgt.t_sub with
  | Some sub -> (
      match MG.find_node mg ~module_:tgt.t_module ~sub ~name:tgt.t_name with
      | Some id -> [ id ]
      | None -> [])
  | None ->
      MG.nodes_with_canonical mg tgt.t_name
      |> List.filter (fun id ->
             tgt.t_module = "" || (MG.node mg id).MG.module_ = tgt.t_module)

(* Every expected node present in the metagraph, sorted and deduplicated.
   An empty result means the ground truth failed to resolve — the
   campaign reports that as a corpus defect rather than scoring it. *)
let resolve_expected (mg : MG.t) (f : t) : int list =
  List.concat_map (resolve_target mg) f.expected |> List.sort_uniq compare
