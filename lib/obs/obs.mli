(** Pipeline-wide tracing and metrics: span-scoped monotonic-clock
    timers and named counters, recorded into one global
    process-wide buffer and emitted as {!Jsonio} values: Chrome
    trace-event JSON or a flat JSON summary.  Span timing uses
    [CLOCK_MONOTONIC] (never stepped by NTP, so durations are always
    non-negative even in a long-lived server); wall time is recorded
    once per {!enable} purely to anchor a trace to calendar time.

    Everything is a no-op until {!enable}: a disabled {!span} costs one
    atomic load before running its body, a disabled {!incr} one atomic
    load and a branch — cheap enough to leave in the Girvan–Newman
    removal loop permanently.  Recording is domain-safe (one mutex,
    taken only when enabled), and instrumentation never influences the
    instrumented computation: enabled and disabled runs produce
    bitwise-identical results. *)

type arg = Int of int | Float of float | Str of string

type span_record = {
  span_name : string;
  ts_us : float;  (** start, microseconds since {!enable} *)
  dur_us : float;
  tid : int;  (** recording domain id *)
  span_args : (string * arg) list;
}

val enabled : unit -> bool

val monotonic_ns : unit -> int64
(** The OS monotonic clock ([clock_gettime(CLOCK_MONOTONIC)]),
    nanoseconds from an arbitrary origin.  Never decreases; the time
    base for every span and for serve-layer latency measurement. *)

val wall_epoch_us : unit -> float
(** [Unix.gettimeofday] in microseconds, captured at the last {!enable}
    — the single wall-clock anchor a trace carries
    ([wallClockStartUs]). *)

val enable : unit -> unit
(** Clear any recorded data and start recording. *)

val disable : unit -> unit
(** Stop recording; already-recorded data stays readable until the next
    {!enable} or {!reset}. *)

val reset : unit -> unit

val span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when enabled, records a span covering the
    call.  An exception is recorded (with a ["raised"] arg) and
    re-raised. *)

val span' : string -> ('a -> (string * arg) list) -> (unit -> 'a) -> 'a
(** Like {!span}, but the args are computed from [f]'s result — and only
    when enabled, so result-derived telemetry costs nothing when off. *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter. *)

(** {1 Introspection} *)

val spans : unit -> span_record list
(** Recorded spans, oldest first. *)

val counters : unit -> (string * int) list
(** Counter values, sorted by name. *)

val counter_value : string -> int
val span_count : string -> int
val span_total_ms : string -> float

(** {1 Emitters} *)

val chrome_trace_json : unit -> Jsonio.t
(** The recorded spans as Chrome trace-event JSON (object form, ["X"]
    complete events, microsecond timestamps); final counter values ride
    along as one instant event.  Loadable in chrome://tracing or
    Perfetto. *)

val summary_json : unit -> Jsonio.t
(** Flat aggregate JSON: per-span-name [count]/[total_ms]/[mean_ms]/
    [max_ms] and counters, keys sorted — the shape
    [BENCH_pipeline.json] embeds. *)

val write_chrome_trace : string -> unit
(** [write_chrome_trace path] writes {!chrome_trace_json} to [path]. *)
