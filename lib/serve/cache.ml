(* The persisted query-cache tier: the daemon's in-memory LRU of
   computed answers, serialized to a sidecar file with the same
   magic/version/FNV framing as model snapshots ([Binio]), so a
   restarted daemon answers its first queries warm instead of
   recomputing every slice from scratch.

   The file is stamped with the snapshot's payload checksum
   ({!Snapshot.checksum}).  [load] compares it against the checksum of
   the snapshot actually being served and rejects the file on mismatch
   — recompiling the model invalidates every persisted entry
   automatically, with no TTLs and no manual cache busting.

   Entries are written most-recent-first (the order [Lru.to_list]
   yields) and re-inserted least-recent-first on load, so the restored
   LRU evicts in the same order the live one would have.  This module
   also owns the [answer] record itself — the cacheable part of a query
   response — because both the server (computes them) and this tier
   (persists them) need it.  The LRU keeps the structured answers, not
   their encoded bytes: the daemon streams a hit's ~50 KB reply into its
   connection buffer in a fraction of a millisecond, while keeping the
   bytes would hold a second copy of every entry. *)

(* Everything except the per-request framing (id, cached/coalesced
   flags, elapsed time), which is never cached. *)
type answer = {
  a_targets : string list;  (* canonical form actually sliced on *)
  a_detector : string;
  a_slice_nodes : int;
  a_slice_targets : int;
  a_iterations : int;
  a_outcome : string;
  a_final_nodes : int;
  a_candidates : (string * string * string * int) list;
  a_located : string list;
}

module B = Binio

(* Version 2 dropped the per-answer engine name; a version-1 file fails
   to load with a typed error and the daemon starts cold. *)
let current_version = 2
let magic = "RCACACHE"

let w_answer buf a =
  B.w_list buf B.w_str a.a_targets;
  B.w_str buf a.a_detector;
  B.w_int buf a.a_slice_nodes;
  B.w_int buf a.a_slice_targets;
  B.w_int buf a.a_iterations;
  B.w_str buf a.a_outcome;
  B.w_int buf a.a_final_nodes;
  B.w_list buf
    (fun buf (name, module_, sub, line) ->
      B.w_str buf name;
      B.w_str buf module_;
      B.w_str buf sub;
      B.w_int buf line)
    a.a_candidates;
  B.w_list buf B.w_str a.a_located

let r_answer r =
  let a_targets = B.r_list r B.r_str in
  let a_detector = B.r_str r in
  let a_slice_nodes = B.r_int r in
  let a_slice_targets = B.r_int r in
  let a_iterations = B.r_int r in
  let a_outcome = B.r_str r in
  let a_final_nodes = B.r_int r in
  let a_candidates =
    B.r_list r (fun r ->
        let name = B.r_str r in
        let module_ = B.r_str r in
        let sub = B.r_str r in
        let line = B.r_int r in
        (name, module_, sub, line))
  in
  let a_located = B.r_list r B.r_str in
  {
    a_targets;
    a_detector;
    a_slice_nodes;
    a_slice_targets;
    a_iterations;
    a_outcome;
    a_final_nodes;
    a_candidates;
    a_located;
  }

let save path ~snapshot_checksum lru =
  B.write_framed ~magic ~version:current_version path (fun buf ->
      B.w_i64 buf snapshot_checksum;
      B.w_list buf
        (fun buf (key, a) ->
          B.w_str buf key;
          w_answer buf a)
        (Lru.to_list lru))

let load path ~snapshot_checksum ~capacity =
  Result.bind (B.read_framed ~magic ~version:current_version ~kind:"cache" path)
    (fun payload ->
      let r = B.reader payload in
      match
        let stamp = B.r_i64 r in
        if stamp <> snapshot_checksum then
          Error "cache was saved for a different snapshot (model recompiled?) — ignoring it"
        else begin
          let entries =
            B.r_list r (fun r ->
                let key = B.r_str r in
                let a = r_answer r in
                (key, a))
          in
          if not (B.at_end r) then raise (B.Corrupt "payload has trailing bytes");
          let lru = Lru.create capacity in
          (* to_list is most-recent-first; re-add oldest first so the
             restored LRU keeps the live eviction order *)
          List.iter (fun (key, a) -> Lru.add lru key a) (List.rev entries);
          Ok (lru, List.length entries)
        end
      with
      | result -> result
      | exception B.Corrupt msg -> Error (Printf.sprintf "corrupt cache: %s" msg))
