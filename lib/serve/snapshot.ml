(* Versioned, checksummed binary snapshots of a compiled model: the
   metagraph (with its exact adjacency-list orders) and the experiment
   context a query server needs (bug nodes, default targets, module
   restriction).

   Byte-identity is the whole point.  The pipeline's determinism
   contract ties results to succ- AND pred-list order (the builder
   prepends, the CSR walks succ lists in place), so both orders are
   serialized verbatim and the loader reconstructs the digraph with
   [Digraph.of_adjacency], freezes that digraph exactly as a fresh build
   does, and rebuilds [by_canonical] with the same ascending
   [Array.iteri]/prepend loop [Metagraph.build] uses.  A pipeline run
   on a loaded snapshot is bitwise identical to one on the freshly
   built model.

   Framing (magic "RCASNAP\n" + version + length + FNV-1a 64 checksum,
   all integers little-endian int64) is shared with the persisted query
   cache — see [Binio].  [load] never raises: wrong magic, wrong
   version, truncation, a checksum mismatch and structural garbage each
   produce a distinct [Error] message; [load] and [describe] have
   separate typed readers, so a malformed file can only ever surface as
   an [Error], never as an assertion failure in the daemon. *)

module G = Rca_graph
module MG = Rca_metagraph.Metagraph
module B = Binio

type t = {
  version : int;
  fingerprint : string;
      (** human-readable build identity: generator config + code shape;
          servers report it so clients can tell which model answered *)
  scale : string;
  experiment : string;  (** [""] when compiled without an experiment *)
  mg : MG.t;
  frozen : Rca_core.Frozen.t;
  keep_modules : string list option;
      (** module restriction baked in at compile time ([None] = keep
          all); the server turns it into [Pipeline.run]'s
          [keep_module] predicate *)
  bug_nodes : int list;  (** injected-fault node ids driving the
                             simulated sampling detector *)
  default_targets : string list;
      (** affected outputs selected at compile time; used when a query
          sends no targets *)
}

let current_version = 1
let magic = "RCASNAP\n"

(* --- writing --------------------------------------------------------------- *)

let sorted_bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let write_payload buf t =
  B.w_str buf t.fingerprint;
  B.w_str buf t.scale;
  B.w_str buf t.experiment;
  (* adjacency: both orders verbatim — see the module comment *)
  let succ, pred = G.Digraph.adjacency t.mg.MG.graph in
  let n = Array.length succ in
  if Array.length t.mg.MG.node_meta <> n then
    invalid_arg "Snapshot.save: node_meta length disagrees with the graph";
  B.w_int buf n;
  Array.iter (fun vs -> B.w_list buf B.w_int vs) succ;
  Array.iter (fun us -> B.w_list buf B.w_int us) pred;
  Array.iter
    (fun nd ->
      B.w_str buf nd.MG.canonical;
      B.w_str buf nd.MG.unique;
      B.w_str buf nd.MG.module_;
      B.w_str buf nd.MG.subprogram;
      B.w_int buf nd.MG.line;
      B.w_byte buf nd.MG.synthetic)
    t.mg.MG.node_meta;
  B.w_list buf
    (fun buf (k, id) ->
      B.w_str buf k;
      B.w_int buf id)
    (sorted_bindings t.mg.MG.by_key);
  (* by_canonical is NOT serialized: the loader re-derives it with the
     builder's own loop, so its per-name id order can never drift from
     the node array *)
  B.w_list buf
    (fun buf (label, names) ->
      B.w_str buf label;
      B.w_list buf B.w_str names)
    (sorted_bindings t.mg.MG.io_map);
  B.w_list buf
    (fun buf ((u, v), origins) ->
      B.w_int buf u;
      B.w_int buf v;
      B.w_list buf
        (fun buf (m, s, line) ->
          B.w_str buf m;
          B.w_str buf s;
          B.w_int buf line)
        origins)
    (sorted_bindings t.mg.MG.edge_origins);
  let st = t.mg.MG.stats in
  B.w_int buf st.MG.assignments_total;
  B.w_int buf st.MG.parsed_primary;
  B.w_int buf st.MG.parsed_relaxed;
  B.w_int buf st.MG.parsed_scraped;
  B.w_int buf st.MG.unhandled;
  (match t.keep_modules with
  | None -> B.w_byte buf false
  | Some ms ->
      B.w_byte buf true;
      B.w_list buf B.w_str ms);
  B.w_list buf B.w_int t.bug_nodes;
  B.w_list buf B.w_str t.default_targets

let save path t = B.write_framed ~magic ~version:current_version path (fun buf -> write_payload buf t)

(* The FNV-1a 64 checksum of the serialized payload — the model's
   byte-level identity.  Deterministic across save/load (tables are
   flattened in sorted key order), so a persisted cache stamped with it
   is invalidated automatically when the model is recompiled. *)
let checksum t =
  let buf = Buffer.create (1 lsl 16) in
  write_payload buf t;
  B.fnv1a64 (Buffer.contents buf)

(* --- reading --------------------------------------------------------------- *)

(* The three leading identity strings, shared by both readers. *)
let read_identity r =
  let fingerprint = B.r_str r in
  let scale = B.r_str r in
  let experiment = B.r_str r in
  (fingerprint, scale, experiment)

let read_full ~version data =
  let r = B.reader data in
  let fingerprint, scale, experiment = read_identity r in
  let n = B.r_len r "node count" in
  let rec rows i acc = if i = n then Array.of_list (List.rev acc) else rows (i + 1) (B.r_list r B.r_int :: acc) in
  let succ = rows 0 [] in
  let pred = rows 0 [] in
  let node_meta =
    let rec metas i acc =
      if i = n then Array.of_list (List.rev acc)
      else begin
        let canonical = B.r_str r in
        let unique = B.r_str r in
        let module_ = B.r_str r in
        let subprogram = B.r_str r in
        let line = B.r_int r in
        let synthetic = B.r_byte r in
        metas (i + 1) ({ MG.canonical; unique; module_; subprogram; line; synthetic } :: acc)
      end
    in
    metas 0 []
  in
  let by_key_pairs =
    B.r_list r (fun r ->
        let k = B.r_str r in
        let id = B.r_int r in
        (k, id))
  in
  let io_pairs =
    B.r_list r (fun r ->
        let label = B.r_str r in
        let names = B.r_list r B.r_str in
        (label, names))
  in
  let origin_pairs =
    B.r_list r (fun r ->
        let u = B.r_int r in
        let v = B.r_int r in
        let origins =
          B.r_list r (fun r ->
              let m = B.r_str r in
              let s = B.r_str r in
              let line = B.r_int r in
              (m, s, line))
        in
        ((u, v), origins))
  in
  (* bind each field first: record-field evaluation order is
     unspecified, the reader's cursor is not *)
  let assignments_total = B.r_int r in
  let parsed_primary = B.r_int r in
  let parsed_relaxed = B.r_int r in
  let parsed_scraped = B.r_int r in
  let unhandled = B.r_int r in
  let stats =
    { MG.assignments_total; parsed_primary; parsed_relaxed; parsed_scraped; unhandled }
  in
  let keep_modules = if B.r_byte r then Some (B.r_list r B.r_str) else None in
  let bug_nodes = B.r_list r B.r_int in
  let default_targets = B.r_list r B.r_str in
  if not (B.at_end r) then raise (B.Corrupt "payload has trailing bytes");
  List.iter
    (fun id -> if id < 0 || id >= n then raise (B.Corrupt "bug node id out of range"))
    bug_nodes;
  let graph =
    try G.Digraph.of_adjacency ~n ~succ ~pred
    with Invalid_argument msg -> raise (B.Corrupt msg)
  in
  let frozen = Rca_core.Frozen.freeze graph in
  let by_key = Hashtbl.create (max 16 (2 * List.length by_key_pairs)) in
  List.iter (fun (k, id) -> Hashtbl.replace by_key k id) by_key_pairs;
  let by_canonical = Hashtbl.create 1024 in
  Array.iteri
    (fun id nd ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_canonical nd.MG.canonical) in
      Hashtbl.replace by_canonical nd.MG.canonical (id :: cur))
    node_meta;
  let io_map = Hashtbl.create (max 16 (2 * List.length io_pairs)) in
  List.iter (fun (label, names) -> Hashtbl.replace io_map label names) io_pairs;
  let edge_origins = Hashtbl.create (max 16 (2 * List.length origin_pairs)) in
  List.iter (fun (k, origins) -> Hashtbl.replace edge_origins k origins) origin_pairs;
  let mg = { MG.graph; node_meta; by_key; by_canonical; io_map; edge_origins; stats } in
  {
    version;
    fingerprint;
    scale;
    experiment;
    mg;
    frozen;
    keep_modules;
    bug_nodes;
    default_targets;
  }

let verified_payload path = B.read_framed ~magic ~version:current_version ~kind:"snapshot" path

let load path =
  Result.bind (verified_payload path) (fun payload ->
      match read_full ~version:current_version payload with
      | t -> Ok t
      | exception B.Corrupt msg -> Error (Printf.sprintf "corrupt snapshot: %s" msg))

let describe path =
  Result.bind (verified_payload path) (fun payload ->
      match read_identity (B.reader payload) with
      | id -> Ok id
      | exception B.Corrupt msg -> Error (Printf.sprintf "corrupt snapshot: %s" msg))
