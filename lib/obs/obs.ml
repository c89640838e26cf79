(* Pipeline-wide tracing and metrics.

   One global, process-wide recorder: span-scoped wall-clock timers and
   named monotone counters.  Everything is a
   no-op until [enable] flips the single atomic flag, so instrumented
   hot paths pay one atomic load (plus the closure already at the call
   site) when tracing is off — the "compiled-out" sink the bench
   overhead budget relies on.

   Recording is domain-safe: the pool workers increment counters and the
   caller records spans concurrently, all behind one mutex (taken only
   when enabled, at batch granularity — never inside a kernel's inner
   loop).  Spans carry the recording domain's id as the Chrome-trace
   [tid], so nested spans reconstruct per-domain flame graphs.

   Determinism contract: instrumentation only observes — it never
   branches the instrumented computation, so enabled and disabled runs
   produce bitwise-identical results (locked down by test_obs.ml and the
   `bench pipeline` differential check). *)

type arg = Int of int | Float of float | Str of string

type span_record = {
  span_name : string;
  ts_us : float;  (* start, microseconds since [enable] *)
  dur_us : float;
  tid : int;  (* recording domain id *)
  span_args : (string * arg) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let lock = Mutex.create ()
let events : span_record list ref = ref []  (* newest first *)
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let epoch_us = ref 0.0
let wall_epoch = ref 0.0  (* Unix epoch us at [enable], for trace anchoring only *)

(* Span timing runs on the OS monotonic clock (clock_gettime(CLOCK_MONOTONIC)
   via a tiny C stub — the distribution's Unix module has no monotonic
   source).  A long-lived serve daemon records spans for days; wall time
   is NTP-steppable, which made durations negative or wildly wrong.  The
   wall clock is kept only to anchor a trace to calendar time. *)
external monotonic_ns : unit -> int64 = "rca_obs_monotonic_ns"

let now_us () = Int64.to_float (monotonic_ns ()) /. 1e3

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      events := [];
      Hashtbl.reset counter_tbl)

let enable () =
  reset ();
  epoch_us := now_us ();
  wall_epoch := Unix.gettimeofday () *. 1e6;
  Atomic.set enabled_flag true

let wall_epoch_us () = !wall_epoch

let disable () = Atomic.set enabled_flag false

let record name ~t0 ~t1 args =
  let ev =
    {
      span_name = name;
      ts_us = t0 -. !epoch_us;
      dur_us = t1 -. t0;
      tid = (Domain.self () :> int);
      span_args = args;
    }
  in
  locked (fun () -> events := ev :: !events)

let span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | r ->
        record name ~t0 ~t1:(now_us ()) args;
        r
    | exception e ->
        record name ~t0 ~t1:(now_us ()) (("raised", Str (Printexc.to_string e)) :: args);
        raise e
  end

let span' name args_of f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | r ->
        record name ~t0 ~t1:(now_us ()) (args_of r);
        r
    | exception e ->
        record name ~t0 ~t1:(now_us ()) [ ("raised", Str (Printexc.to_string e)) ];
        raise e
  end

let incr ?(by = 1) name =
  if enabled () then
    locked (fun () ->
        Hashtbl.replace counter_tbl name
          (by + Option.value ~default:0 (Hashtbl.find_opt counter_tbl name)))

(* --- introspection --------------------------------------------------------- *)

let spans () = locked (fun () -> List.rev !events)

let counters () =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_tbl [])
  |> List.sort compare

let counter_value name =
  locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counter_tbl name))

let span_count name =
  locked (fun () -> List.length (List.filter (fun e -> e.span_name = name) !events))

let span_total_ms name =
  locked (fun () ->
      List.fold_left
        (fun acc e -> if e.span_name = name then acc +. (e.dur_us /. 1e3) else acc)
        0.0 !events)

(* --- emitters -------------------------------------------------------------- *)

let arg_json = function
  | Int i -> Jsonio.num i
  | Float f -> Jsonio.Num f
  | Str s -> Jsonio.Str s

let args_json args = Jsonio.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)
let counters_json cs = Jsonio.Obj (List.map (fun (k, v) -> (k, Jsonio.num v)) cs)

(* Chrome trace-event JSON (the object form, "X" complete events; load
   in chrome://tracing or Perfetto).  ts/dur are microseconds. *)
let chrome_trace_json () =
  let event name ph ~tid ~ts rest =
    Jsonio.Obj
      ([
         ("name", Jsonio.Str name);
         ("cat", Jsonio.Str "rca");
         ("ph", Jsonio.Str ph);
         ("pid", Jsonio.num 0);
         ("tid", Jsonio.num tid);
         ("ts", Jsonio.Num ts);
       ]
      @ rest)
  in
  let span ev =
    event ev.span_name "X" ~tid:ev.tid ~ts:ev.ts_us
      (("dur", Jsonio.Num ev.dur_us)
      :: (if ev.span_args = [] then [] else [ ("args", args_json ev.span_args) ]))
  in
  (* final counter values as one metadata-style event, so a trace alone
     carries the counters too *)
  let counters_event =
    match counters () with
    | [] -> []
    | cs ->
        let args = [ ("s", Jsonio.Str "g"); ("args", counters_json cs) ] in
        [ event "counters" "I" ~tid:0 ~ts:0.0 args ]
  in
  (* wallClockStartUs anchors the monotonic timeline to calendar time —
     the only place wall time appears *)
  Jsonio.Obj
    [
      ("displayTimeUnit", Jsonio.Str "ms");
      ("wallClockStartUs", Jsonio.Num !wall_epoch);
      ("traceEvents", Jsonio.Arr (List.map span (spans ()) @ counters_event));
    ]

(* Flat aggregate: per-span-name count/total/mean/max plus counters,
   keys sorted for stable diffs — the shape BENCH_pipeline.json
   embeds. *)
let summary_json () =
  let agg : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let n, tot, mx =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg e.span_name)
      in
      Hashtbl.replace agg e.span_name
        (n + 1, tot +. (e.dur_us /. 1e3), Float.max mx (e.dur_us /. 1e3)))
    (spans ());
  let span_json (name, (n, tot, mx)) =
    ( name,
      Jsonio.Obj
        [
          ("count", Jsonio.num n);
          ("total_ms", Jsonio.Num tot);
          ("mean_ms", Jsonio.Num (tot /. float_of_int (max 1 n)));
          ("max_ms", Jsonio.Num mx);
        ] )
  in
  let spans = Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [] |> List.sort compare in
  Jsonio.Obj
    [
      ("spans", Jsonio.Obj (List.map span_json spans));
      ("counters", counters_json (counters ()));
    ]

let write_chrome_trace path = Jsonio.to_file path (chrome_trace_json ())
