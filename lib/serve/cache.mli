(** The persisted query-cache tier: serializes the daemon's in-memory
    LRU of computed answers to a checksummed sidecar file (same framing
    discipline as {!Snapshot}) so a restarted daemon answers warm.
    The LRU holds structured answers, never their encoded bytes, so an
    entry costs one copy of its answer.

    The file is stamped with {!Snapshot.checksum} of the model it was
    computed against; {!load} rejects a stamp mismatch, so recompiling
    the model invalidates stale entries automatically. *)

(** The cacheable part of a query response — everything except the
    per-request framing (id, cached/coalesced flags, elapsed time). *)
type answer = {
  a_targets : string list;  (** canonical form actually sliced on *)
  a_detector : string;
  a_slice_nodes : int;
  a_slice_targets : int;
  a_iterations : int;
  a_outcome : string;
  a_final_nodes : int;
  a_candidates : (string * string * string * int) list;
  a_located : string list;
}

val current_version : int
(** Sidecar format version, bumped whenever [answer] changes shape; a
    file of any other version fails {!load} with a typed error. *)

val save : string -> snapshot_checksum:int64 -> (string, answer) Lru.t -> unit
(** [save path ~snapshot_checksum lru] writes every cache entry
    atomically (temp file + rename), stamped with the serving
    snapshot's checksum.  Raises [Sys_error] on I/O failure. *)

val load :
  string ->
  snapshot_checksum:int64 ->
  capacity:int ->
  ((string, answer) Lru.t * int, string) result
(** Read, verify (magic, version, length, checksum, snapshot stamp) and
    rebuild an LRU of at most [capacity] entries, preserving the saved
    recency order.  Returns the LRU and the number of entries read.
    Never raises; damage and stamp mismatch come back as [Error]. *)
