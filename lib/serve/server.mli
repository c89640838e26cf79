(** The RCA query daemon: serve one immutable compiled model
    ({!Snapshot.t}) over a line-delimited JSON protocol.

    Protocol: one request object per line, one response object per
    line.  Ops: ["query"] (the default — targets/detector plus the
    non-negative refinement knobs, all defaulting to the single-shot
    pipeline's values), ["ping"], ["stats"], ["shutdown"].  Responses carry
    [status] ("ok"/"error"), the echoed [id], and for queries the
    [cached]/[coalesced] flags, slice and refinement sizes, candidate
    locations and located bugs.

    The socket loop is a [Unix.select] reactor that only parses,
    dispatches and writes; query compute runs sequentially on a bounded
    work queue of dedicated worker domains ({!Rca_graph.Pool.Workqueue}),
    so a slow cold query never stalls other clients.  Responses complete
    out of order — clients match them to requests by the echoed [id].
    Each reply is printed once, straight into its connection's output
    buffer, and that buffer keeps its capacity between replies.
    Results are cached in an LRU keyed by the canonical request; a
    request whose key is already computing attaches to the in-flight
    job (its reply is flagged ["coalesced"]).  With [~cache_path] the
    LRU persists to a checksummed sidecar ({!Cache}) and reloads at
    startup, so a restarted daemon answers warm.  Malformed lines and
    failing queries produce error replies, and a connection that sends
    more than 1 MiB without a newline is closed and counted as an error
    — the daemon never dies on request input. *)

type addr = [ `Unix of string | `Tcp of int ]
(** Where to listen: a Unix-domain socket path or a loopback TCP port.
    A socket already at the path is replaced; any other file there is
    refused (see {!serve}). *)

type stats = {
  mutable served : int;  (** successful replies, all ops *)
  mutable errors : int;  (** error replies and connections closed for an over-long line *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable coalesced : int;
      (** requests that attached to an in-flight computation of the
          same key — suppressed stampede members *)
  mutable inline_runs : int;
      (** jobs computed on the reactor itself because the work queue was
          full (backpressure) *)
  mutable warm_entries : int;
      (** cache entries reloaded from the persisted sidecar at startup *)
  mutable cache_saves : int;  (** sidecar writes (periodic + shutdown) *)
}

val serve :
  ?cache_capacity:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_path:string ->
  ?cache_save_every:float ->
  ?on_ready:(unit -> unit) ->
  addr ->
  Snapshot.t ->
  stats
(** Run the daemon until a ["shutdown"] request (in-flight queries are
    drained and their replies flushed before the sockets close).

    [cache_capacity] (default 64) bounds the LRU.  [workers] (default
    1) sizes the compute work queue and is the daemon's one parallelism
    knob; [Invalid_argument] when below 1.  Per-request ["domains"] and
    ["engine"] fields are accepted and ignored, so results never depend
    on client configuration.  [queue_capacity] (default 64) bounds
    queued jobs; when full, new jobs compute inline as backpressure
    rather than being refused.  [cache_path] names the persisted-cache
    sidecar: loaded at startup (entries stamped for a different snapshot
    are ignored), saved on graceful shutdown and every
    [cache_save_every] seconds of the monotonic clock (never saved when
    omitted).
    [on_ready] fires after the socket is listening (e.g. to signal a
    forked parent).  Returns the final counters.

    The socket is bound before any worker domain starts.  A file at a
    [`Unix] path that is not a socket is left as it is, and [serve]
    raises [Sys_error] naming the path. *)
