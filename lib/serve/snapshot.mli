(** Persistent compiled models: build once with [rca_main compile],
    load in milliseconds, serve forever.

    A snapshot freezes everything a query server needs — the metagraph
    with its exact adjacency-list orders (the determinism contract ties
    results to succ- {e and} pred-list order), the lookup tables, and
    the experiment context (injected bug nodes, default affected
    outputs, module restriction).  The loader freezes the loaded graph
    with {!Rca_core.Frozen.freeze}, so a pipeline run on a loaded
    snapshot is bitwise identical to one on the freshly built model.

    The on-disk format is a fixed header (8-byte magic ["RCASNAP\n"],
    version, payload length, FNV-1a 64 checksum) followed by a flat
    little-endian payload with every hash table serialized in sorted
    key order.  {!load} never raises: bad magic, a version other than
    {!current_version}, truncation, checksum mismatches and structural
    garbage each come back as a distinct [Error]. *)

type t = {
  version : int;
  fingerprint : string;
      (** human-readable build identity (generator config + code
          shape); servers report it so clients know which model
          answered *)
  scale : string;
  experiment : string;  (** [""] when compiled without an experiment *)
  mg : Rca_metagraph.Metagraph.t;
  frozen : Rca_core.Frozen.t;
      (** the shared immutable CSR, transpose and symmetric closure
          every masked-engine query reuses *)
  keep_modules : string list option;
      (** compile-time module restriction; [None] keeps every module *)
  bug_nodes : int list;
      (** injected-fault node ids driving the simulated sampling
          detector *)
  default_targets : string list;
      (** affected outputs selected at compile time; used when a query
          sends no targets *)
}

val current_version : int

val save : string -> t -> unit
(** [save path t] writes the snapshot atomically (temp file + rename).
    Raises [Sys_error] on I/O failure and [Invalid_argument] if [t] is
    internally inconsistent. *)

val checksum : t -> int64
(** FNV-1a 64 of the serialized payload — the model's byte-level
    identity.  Stable across save/load; the persisted query cache is
    stamped with it so recompiling the model invalidates stale
    entries. *)

val load : string -> (t, string) result
(** Read, verify (magic, version, length, checksum, structure) and
    reconstruct.  Never raises; each failure mode has a distinct
    message. *)

val describe : string -> (string * string * string, string) result
(** [(fingerprint, scale, experiment)] from a verified snapshot without
    rebuilding the graph — for quick inspection. *)
