(* serve-mixed-small: RCA as a service.  Set-up compiles the small
   GOFFGRATCH snapshot with `rca_main compile --scale small --experiment
   goffgratch`, then starts `rca_main serve` on it in a fresh process with
   the CLI defaults (LRU 64, one worker, one domain); set-up ends at the
   first successful ping.

   The timed phase is a closed loop: two Unix-socket connections, each
   with one request outstanding, because callers wait for their replies
   as `rca_main query` does.  Every query uses the greedy detector.  About
   80% of the stream comes from a hot set of 16 single-label keys, which
   fits the LRU and so exercises the hit path (no graph work; the reply's
   JSON encode and decode dominate).  The rest are two- and three-label
   keys that are never repeated: each misses, waits in the queue, runs
   the greedy pipeline and evicts an LRU entry.  Hits set the median,
   misses the tail, so a gain for cached reads that costs cache writes
   shows as p50 against p99. *)

open Rca_experiments
module J = Rca_serve.Jsonio
module Client = Rca_serve.Client
module Snapshot = Rca_serve.Snapshot
module MG = Rca_metagraph.Metagraph
module Core = Rca_core

let spec = Experiments.goffgratch
let config = Rca_synth.Config.small

(* Catalogue labels whose slice on the small GOFFGRATCH model is not
   empty. *)
let labels =
  List.filter (fun l -> not (List.mem l [ "freqs"; "snowhlnd"; "soilw" ])) Rca_synth.Outputs.names

(* Hot keys are drawn from the labels whose reply carries the full
   candidate list (about 50 KB).  The reply for wsub is 30 times smaller,
   so whether a seed drew it would move the cost of a hit by seed. *)
let hot_labels = List.filter (fun l -> l <> "wsub") labels

let hot_size = 16
let hot_share = 0.8
let connections = 2

(* Exact counters are read from the daemon once this many requests have
   completed and none is in flight.  Fewer distinct keys than the LRU holds
   arrive by then, so nothing has been evicted and the miss count depends
   only on the stream. *)
let barrier = 200

let setups_before = 2
let setups_after = 1

(* A request without a reply for this long counts as failed and its
   connection as dropped. *)
let reply_timeout_s = 30.0

(* --- the seeded key stream --------------------------------------------------- *)

type stream = { rng : Random.State.t; hot : string list array; fresh : string list array; mutable next_fresh : int }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let stream seed =
  let rng = Random.State.make [| seed |] in
  let hot = Array.sub (shuffle rng (Array.of_list (List.map (fun l -> [ l ]) hot_labels))) 0 hot_size in
  let rec subsets k = function
    | [] -> if k = 0 then [ [] ] else []
    | x :: rest ->
        if k = 0 then [ [] ]
        else List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  let sorted = List.sort compare labels in
  let fresh = shuffle rng (Array.of_list (subsets 2 sorted @ subsets 3 sorted)) in
  { rng; hot; fresh; next_fresh = 0 }

(* The next key; fresh keys repeat only once all of them have been used. *)
let next st =
  if Random.State.float st.rng 1.0 < hot_share then st.hot.(Random.State.int st.rng hot_size)
  else begin
    let k = st.fresh.(st.next_fresh mod Array.length st.fresh) in
    st.next_fresh <- st.next_fresh + 1;
    k
  end

let key targets = String.concat "," targets

(* --- set-up: compile, start, ping ------------------------------------------------- *)

let snap_path = Filename.concat Common.work_dir "serve-small.rcasnap"
let sock_path () = Filename.concat Common.work_dir (Printf.sprintf "rca-%d.sock" (Unix.getpid ()))

let load_snapshot () =
  match Snapshot.load snap_path with
  | Ok loaded -> loaded
  | Error msg -> failwith ("snapshot reload failed: " ^ msg)

(* The untraced set-up compiles with the CLI itself, in a fresh process
   each time, as a user does. *)
let compile_cli () =
  Common.run_quiet (Common.rca_main ())
    [ "compile"; "--scale"; "small"; "--experiment"; "goffgratch"; "-o"; snap_path ]

(* The traced set-up makes the calls `rca_main compile --scale small
   --experiment goffgratch` makes, including its verification reload, so
   that each layer is timed from here; returns the loaded snapshot. *)
let compile_traced () =
  let p = Harness.default_params config in
  let fixture = Steps.fixture ~inject:spec.Harness.inject config in
  let sel = Steps.select spec p fixture in
  let mg = fixture.Fixture.mg in
  let keep_modules =
    Array.to_list mg.MG.node_meta
    |> List.map (fun nd -> nd.MG.module_)
    |> List.sort_uniq compare
    |> List.filter Rca_synth.Outputs.is_cam_module
  in
  let snap =
    {
      Snapshot.version = Snapshot.current_version;
      fingerprint =
        Printf.sprintf "climate-rca scale=small experiment=%s nodes=%d edges=%d" spec.Harness.name
          (MG.n_nodes mg) (Rca_graph.Digraph.m mg.MG.graph);
      scale = "small";
      experiment = spec.Harness.name;
      mg;
      frozen = Span.with_ "core.freeze" (fun () -> Core.Frozen.freeze mg.MG.graph);
      keep_modules = Some keep_modules;
      bug_nodes = Fixture.bug_nodes fixture ~canonicals:spec.Harness.bug_canonicals;
      default_targets = sel.Harness.sel_affected;
    }
  in
  Span.with_ "serve.snapshot_save" (fun () -> Snapshot.save snap_path snap);
  Span.with_ "serve.snapshot_load" load_snapshot

type daemon = { pid : int; sock : string; mutable running : bool }

let ok_reply = function Ok r -> J.member "status" r = Some (J.Str "ok") | Error _ -> false

(* Reap the daemon, killing it if it has not exited after [grace] seconds. *)
let stop ?(grace = 0.0) d =
  if d.running then begin
    d.running <- false;
    let t0 = Span.now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Common.elapsed_s t0 < grace ->
          Unix.sleepf 0.01;
          wait ()
      | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
    in
    wait ();
    try Sys.remove d.sock with Sys_error _ -> ()
  end

let control d op =
  let c = Client.connect (`Unix d.sock) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c (J.Obj [ ("op", J.Str op) ]))

let shutdown d =
  if d.running then begin
    (try ignore (control d "shutdown") with Unix.Unix_error _ -> ());
    stop ~grace:10.0 d
  end

(* Start `rca_main serve` with the CLI defaults and wait for its first
   successful ping. *)
let start () =
  let sock = sock_path () in
  (try Sys.remove sock with Sys_error _ -> ());
  let exe = Common.rca_main () in
  let log =
    Unix.openfile (Filename.concat Common.work_dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process exe [| exe; "serve"; snap_path; "--socket"; sock |] null log log)
  in
  let d = { pid; sock; running = true } in
  let t0 = Span.now () in
  let rec wait () =
    if Common.elapsed_s t0 > 60.0 then begin
      stop d;
      failwith "daemon did not answer a ping within 60 s"
    end;
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
        d.running <- false;
        failwith "daemon exited during start-up"
    | _ ->
        let up = match control d "ping" with r -> ok_reply r | exception Unix.Unix_error _ -> false in
        if not up then begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  Span.with_ "serve.start" wait;
  d

(* --- the closed loop ----------------------------------------------------------- *)

type sample = {
  s_rt_ms : float;  (* send to parsed reply *)
  s_decode_ms : float;
  s_encode_ms : float;  (* re-encode of the reply, traced half only *)
  s_elapsed_ms : float;  (* the daemon's own figure *)
  s_cached : bool;
  s_bytes : int;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable busy : (int * string list * int64) option;  (* request id, targets, send time *)
  mutable alive : bool;
}

type phase = {
  samples : sample list;  (* in completion order *)
  sent : int;
  failures : string list;
  wall_s : float;
  barrier_misses : int option;  (* None unless read at [stats_at] *)
}

let volatile = [ "id"; "cached"; "coalesced"; "elapsed_ms" ]

let stripped = function
  | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields)
  | v -> v

let num_field name v = Option.bind (J.member name v) (function J.Num f -> Some f | _ -> None)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go pos = if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos)) in
  go 0

(* State shared by the loop's phases: the first reply seen per key (parsed
   for the hot keys, which repeat; the raw line for fresh keys, checked
   after the timed phase). *)
type seen = { first_hot : (string, J.t) Hashtbl.t; first_line : (string, string list * string) Hashtbl.t }

(* Run the closed loop for [seconds], then until no request is
   outstanding.  [trace] adds request spans under [root]; [stats_at] pauses
   the loop after that many requests to read the daemon's counters with
   nothing in flight. *)
let closed_loop ~d ~conns ~st ~seen ~next_id ~seconds ~trace ~root ~stats_at =
  let samples = ref [] and failures = ref [] and sent = ref 0 in
  let barrier_read = ref false and barrier_misses = ref None in
  let t_start = Span.now () in
  let chunk = Bytes.create 65536 in
  let outstanding () = List.exists (fun c -> c.busy <> None) conns in
  let fail c msg =
    failures := msg :: !failures;
    c.busy <- None
  in
  let send c =
    let id = !next_id in
    incr next_id;
    incr sent;
    let targets = next st in
    let line =
      J.to_string
        (J.Obj
           [
             ("op", J.Str "query");
             ("id", J.num id);
             ("targets", J.Arr (List.map (fun t -> J.Str t) targets));
             ("detector", J.Str "greedy");
           ])
    in
    c.busy <- Some (id, targets, Span.now ());
    match write_all c.fd (line ^ "\n") with
    | () -> ()
    | exception Unix.Unix_error (e, _, _) ->
        c.alive <- false;
        fail c ("send failed: " ^ Unix.error_message e)
  in
  let on_line c line =
    match c.busy with
    | None -> failures := "reply without a request" :: !failures
    | Some (id, targets, t_send) -> (
        c.busy <- None;
        let dec0 = Span.now () in
        let parsed = J.of_string line in
        let t_done = Span.now () in
        let k = key targets in
        match parsed with
        | Error msg -> failures := Printf.sprintf "%s: unparseable reply: %s" k msg :: !failures
        | Ok v when J.member "status" v <> Some (J.Str "ok") ->
            failures := Printf.sprintf "%s: error reply %s" k line :: !failures
        | Ok v when Option.bind (J.member "id" v) J.int_opt <> Some id ->
            failures := Printf.sprintf "%s: reply for another request" k :: !failures
        | Ok v ->
            let consistent =
              if List.length targets = 1 then
                match Hashtbl.find_opt seen.first_hot k with
                | Some first -> first = stripped v
                | None ->
                    Hashtbl.replace seen.first_hot k (stripped v);
                    true
              else
                match Hashtbl.find_opt seen.first_line k with
                | Some (_, first) -> (
                    match J.of_string first with Ok f -> stripped f = stripped v | Error _ -> false)
                | None ->
                    Hashtbl.replace seen.first_line k (targets, line);
                    true
            in
            if not consistent then
              failures := Printf.sprintf "%s: reply differs from the first reply for this key" k :: !failures
            else begin
              let encode_ms =
                if trace then begin
                  let e0 = Span.now () in
                  ignore (J.to_string v);
                  Span.ms_between e0 (Span.now ())
                end
                else 0.0
              in
              let s =
                {
                  s_rt_ms = Span.ms_between t_send t_done;
                  s_decode_ms = Span.ms_between dec0 t_done;
                  s_encode_ms = encode_ms;
                  s_elapsed_ms = Option.value ~default:0.0 (num_field "elapsed_ms" v);
                  s_cached = J.member "cached" v = Some (J.Bool true);
                  s_bytes = String.length line + 1;
                }
              in
              samples := s :: !samples;
              if trace then begin
                let ns ms = Int64.of_float (ms *. 1e6) in
                let req = Span.add ~req:id ~parent:root "serve.request" t_send t_done in
                let t_daemon = Int64.add t_send (ns s.s_elapsed_ms) in
                let t_encode = Int64.add t_daemon (ns encode_ms) in
                ignore (Span.add ~req:id ~parent:req "serve.daemon" t_send t_daemon);
                ignore (Span.add ~req:id ~parent:req "serve.encode" t_daemon t_encode);
                ignore (Span.add ~req:id ~parent:req "serve.transport" t_encode dec0);
                ignore (Span.add ~req:id ~parent:req "serve.decode" dec0 t_done)
              end
            end)
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
        c.alive <- false;
        fail c "connection closed by the daemon"
    | n ->
        Buffer.add_subbytes c.buf chunk 0 n;
        let rec lines () =
          let s = Buffer.contents c.buf in
          match String.index_opt s '\n' with
          | None -> ()
          | Some i ->
              Buffer.clear c.buf;
              Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
              on_line c (String.sub s 0 i);
              lines ()
        in
        lines ()
    | exception Unix.Unix_error (e, _, _) ->
        c.alive <- false;
        fail c ("read failed: " ^ Unix.error_message e)
  in
  let pausing () = stats_at = Some !sent && not !barrier_read in
  let continue_ () = Common.elapsed_s t_start < seconds && List.exists (fun c -> c.alive) conns in
  while continue_ () || outstanding () do
    List.iter
      (fun c ->
        match c.busy with
        | Some (_, targets, t_send) when Common.elapsed_s t_send > reply_timeout_s ->
            c.alive <- false;
            fail c (Printf.sprintf "%s: no reply within %.0f s" (key targets) reply_timeout_s)
        | _ -> ())
      conns;
    if pausing () && not (outstanding ()) then begin
      barrier_read := true;
      let fail_barrier msg = failures := ("exact-counter barrier: " ^ msg) :: !failures in
      match Result.map (fun r -> Option.bind (J.member "cache_misses" r) J.int_opt) (control d "stats") with
      | Ok (Some n) -> barrier_misses := Some n
      | Ok None -> fail_barrier "the stats reply has no cache_misses"
      | Error msg -> fail_barrier ("stats request failed: " ^ msg)
      | exception Unix.Unix_error (e, _, _) -> fail_barrier ("stats request failed: " ^ Unix.error_message e)
    end;
    (* The barrier is checked before every send: two replies read in one
       select must not carry [sent] past it. *)
    if continue_ () then
      List.iter (fun c -> if c.alive && c.busy = None && not (pausing ()) then send c) conns;
    let waiting = List.filter_map (fun c -> if c.busy <> None && c.alive then Some c.fd else None) conns in
    if waiting <> [] then
      match Unix.select waiting [] [] 1.0 with
      | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then read c) conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if stats_at <> None && not !barrier_read then
    failures := "exact-counter barrier: the loop ended before reaching it" :: !failures;
  {
    samples = List.rev !samples;
    sent = !sent;
    failures = List.rev !failures;
    wall_s = Common.elapsed_s t_start;
    barrier_misses = !barrier_misses;
  }

(* --- verification ------------------------------------------------------------ *)

(* Check each distinct key's first reply, field for field, against an
   in-process Pipeline.run on the same loaded snapshot; returns the
   failures, the fresh keys' compute times and the hot keys' answers.
   The check runs after the timed phase and costs about as much as the
   misses did, so the untraced run ([split]) checks the fresh keys on two
   domains: Pipeline.run only reads the snapshot, as the daemon's worker
   domains do.  The traced run checks on one, since its spans are
   recorded from one domain. *)
let verify ~split (snap : Snapshot.t) ~seen =
  let mg = snap.Snapshot.mg in
  let keep_module =
    match snap.Snapshot.keep_modules with None -> fun _ -> true | Some ms -> fun m -> List.mem m ms
  in
  let detect = Core.Detector.reachability mg ~bug_nodes:snap.Snapshot.bug_nodes in
  let expected targets =
    let t0 = Span.now () in
    let p =
      Steps.pipeline (fun () ->
          Core.Pipeline.run ~keep_module ~partitioner:Core.Refine.Modularity_greedy
            ~frozen:snap.Snapshot.frozen mg ~outputs:targets ~detect)
    in
    (p, Common.elapsed_s t0 *. 1e3)
  in
  let compare_fields targets reply (p : Core.Pipeline.t) =
    let r = p.Core.Pipeline.result in
    let want =
      [
        ("targets", J.Arr (List.map (fun t -> J.Str t) (List.sort_uniq compare targets)));
        ("slice_nodes", J.num (List.length p.Core.Pipeline.slice.Core.Slice.nodes));
        ("iterations", J.num (List.length r.Core.Refine.iterations));
        ("outcome", J.Str (Core.Refine.outcome_string r.Core.Refine.outcome));
        ("final_nodes", J.num (List.length r.Core.Refine.final_nodes));
        ( "located_bugs",
          J.Arr
            (List.map
               (fun id -> J.Str (MG.node mg id).MG.unique)
               (Core.Pipeline.located_bugs mg p ~bug_nodes:snap.Snapshot.bug_nodes)) );
      ]
    in
    let candidates =
      List.map
        (fun (name, module_, sub, line) -> (J.Str name, J.Str module_, J.Str sub, J.num line))
        (Core.Pipeline.candidates mg p)
    in
    let got_candidates =
      match Option.bind (J.member "candidates" reply) J.list_opt with
      | None -> None
      | Some cs ->
          Some
            (List.map
               (fun c ->
                 let f n = Option.value ~default:J.Null (J.member n c) in
                 (f "name", f "module", f "subprogram", f "line"))
               cs)
    in
    List.filter_map
      (fun (field, v) -> if J.member field reply = Some v then None else Some field)
      want
    @ if got_candidates = Some candidates then [] else [ "candidates" ]
  in
  (* The failure, if any, of one key's check. *)
  let check k targets reply p =
    match compare_fields targets reply p with
    | [] -> None
    | fields ->
        Some (Printf.sprintf "%s: served answer differs from Pipeline.run in %s" k (String.concat ", " fields))
  in
  let hot =
    Hashtbl.fold (fun k reply acc -> (k, reply) :: acc) seen.first_hot []
    |> List.sort compare
    |> List.map (fun (k, reply) ->
           let targets = String.split_on_char ',' k in
           let p, _ = expected targets in
           let located =
             Core.Pipeline.located_bugs mg p ~bug_nodes:snap.Snapshot.bug_nodes |> Core.Pipeline.describe_nodes mg
           in
           (check k targets reply p, (k, Oracle.of_pipeline ~located ~context:"" p)))
  in
  (* (failures, compute times) of a list of fresh keys. *)
  let check_fresh keys =
    List.fold_left
      (fun (fs, ms) (k, (targets, line)) ->
        match J.of_string line with
        | Error msg -> (Printf.sprintf "%s: unparseable reply: %s" k msg :: fs, ms)
        | Ok reply ->
            let p, t = expected targets in
            (Option.to_list (check k targets reply p) @ fs, t :: ms))
      ([], []) keys
  in
  let fresh = Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen.first_line [] |> List.sort compare in
  let fresh_failures, compute_ms =
    if not split then check_fresh fresh
    else begin
      let half = List.filteri (fun i _ -> i mod 2 = 1) fresh in
      let other = Domain.spawn (fun () -> check_fresh half) in
      let f1, m1 = check_fresh (List.filteri (fun i _ -> i mod 2 = 0) fresh) in
      let f2, m2 = Domain.join other in
      (f1 @ f2, m1 @ m2)
    end
  in
  (List.filter_map fst hot @ List.sort compare fresh_failures, compute_ms, List.map snd hot)

(* --- the workload ------------------------------------------------------------ *)

let connect d =
  List.init connections (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX d.sock);
      { fd; buf = Buffer.create 65536; busy = None; alive = true })

let daemon_stats d =
  match control d "stats" with
  | Ok r -> fun name -> Option.value ~default:0 (Option.bind (J.member name r) J.int_opt)
  | Error msg -> failwith ("stats request failed: " ^ msg)

let run ~seed ~seconds ~trace : Common.outcome =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st = stream seed in
  let seen = { first_hot = Hashtbl.create 16; first_line = Hashtbl.create 1024 } in
  let next_id = ref 1 in
  let daemons = ref [] in
  let started () =
    let d = start () in
    daemons := d :: !daemons;
    d
  in
  Fun.protect ~finally:(fun () -> List.iter stop !daemons) @@ fun () ->
  (* One untraced set-up: compile, then start the daemon and wait for its
     first ping. *)
  let setup () =
    List.iter shutdown !daemons;
    let t0 = Span.now () in
    compile_cli ();
    let d = started () in
    (d, Common.elapsed_s t0)
  in
  (* The host's speed drifts over seconds, so the untraced run spreads its
     set-ups over the run: [setups_before] before the timed phase, the last
     of which serves it, and [setups_after] after it. *)
  let snap, d, setups =
    if trace then begin
      Span.enabled := true;
      let snap, d = Span.with_ "setup" (fun () -> let s = compile_traced () in (s, started ())) in
      Span.enabled := false;
      (snap, d, [])
    end
    else
      let setups = List.init setups_before (fun _ -> setup ()) in
      (load_snapshot (), fst (List.hd (List.rev setups)), List.map snd setups)
  in
  let conns = connect d in
  Fun.protect ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns) @@ fun () ->
  let loop ~seconds ~trace ~root ~stats_at =
    closed_loop ~d ~conns ~st ~seen ~next_id ~seconds ~trace ~root ~stats_at
  in
  let phases =
    if not trace then [ loop ~seconds ~trace:false ~root:(-1) ~stats_at:(Some barrier) ]
    else begin
      let plain = loop ~seconds:(seconds /. 2.0) ~trace:false ~root:(-1) ~stats_at:(Some barrier) in
      Span.enabled := true;
      let root = Span.fresh () in
      let traced = loop ~seconds:(seconds /. 2.0) ~trace:true ~root ~stats_at:None in
      let sum = List.fold_left (fun acc s -> acc +. s.s_rt_ms) 0.0 traced.samples in
      ignore (Span.add ~id:root ~parent:(-1) "requests" 0L (Int64.of_float (sum *. 1e6)));
      Span.enabled := false;
      [ plain; traced ]
    end
  in
  let stats = daemon_stats d in
  let rss = Common.peak_rss_mb (string_of_int d.pid) in
  shutdown d;
  let setups = if trace then [] else setups @ List.init setups_after (fun _ -> snd (setup ())) in
  List.iter shutdown !daemons;
  if trace then Span.enabled := true;
  let verify_failures, compute_ms, hot = Span.with_ "verify" (fun () -> verify ~split:(not trace) snap ~seen) in
  Span.enabled := false;
  let samples = List.concat_map (fun ph -> ph.samples) phases in
  let sent = List.fold_left (fun acc ph -> acc + ph.sent) 0 phases in
  let failures = List.concat_map (fun ph -> ph.failures) phases @ verify_failures in
  (* A barrier that was not read is already among the failures, and a
     failed run writes no exact-counter ledger. *)
  let barrier_misses = Option.value ~default:0 (List.hd phases).barrier_misses in
  let answers = List.map snd hot in
  let exact =
    Common.exact (Steps.graph_sizes [ snap.Snapshot.mg ] @ Steps.result_sizes answers)
    @ [ ("serve.cache_misses", barrier_misses) ]
  in
  let hit_ratio samples =
    float_of_int (List.length (List.filter (fun s -> s.s_cached) samples))
    /. float_of_int (max 1 (List.length samples))
  in
  let notes =
    [
      Printf.sprintf "hot keys: %s" (String.concat " " (Array.to_list (Array.map key st.hot)));
      Printf.sprintf "%d requests over %d connections, %d ok, %d distinct keys; hit ratio %.3f" sent
        connections (List.length samples)
        (Hashtbl.length seen.first_hot + Hashtbl.length seen.first_line)
        (hit_ratio samples);
      Printf.sprintf "daemon: cache_hits %d cache_misses %d coalesced %d inline_runs %d errors %d"
        (stats "cache_hits") (stats "cache_misses") (stats "coalesced") (stats "inline_runs")
        (stats "errors");
    ]
  in
  let base =
    {
      Common.attempted = sent;
      problems = failures;
      metrics = [];
      counters = exact;
      notes;
      rows = [];
      spans = [];
    }
  in
  if not trace then begin
    let ph = List.hd phases in
    let lat = List.map (fun s -> s.s_rt_ms) ph.samples in
    {
      base with
      Common.metrics =
        [
          ("setup_s", Common.median setups);
          ("answers_per_s", float_of_int (List.length ph.samples) /. ph.wall_s);
          ("latency_p50_ms", Common.median lat);
          ("latency_p99_ms", Common.quantile 0.99 lat);
          ("peak_rss_mb", rss);
        ];
      notes =
        base.Common.notes
        @ [
            Printf.sprintf "set-up %s s (median of %d: compile, then daemon start to first ping)"
              (String.concat ", " (List.map (Printf.sprintf "%.3f") setups))
              (List.length setups);
            Printf.sprintf "%d answers in %.3f s; latency over %d samples" (List.length ph.samples) ph.wall_s
              (List.length lat);
          ];
    }
  end
  else begin
    let plain, traced = (List.nth phases 0, List.nth phases 1) in
    let rate ph = float_of_int (List.length ph.samples) /. ph.wall_s in
    let spans = !Span.recorded in
    let tr = traced.samples in
    let med f = Common.median (List.map f tr) in
    let hits, misses = List.partition (fun s -> s.s_cached) tr in
    {
      base with
      Common.metrics =
        Steps.layer_metrics spans
        @ Steps.graph_sizes [ snap.Snapshot.mg ]
        @ Steps.result_sizes answers
        @ [
            ("serve.snapshot_save_ms", Span.total_ms spans "serve.snapshot_save");
            ("serve.snapshot_bytes", float_of_int (Unix.stat snap_path).Unix.st_size);
            ("serve.start_ms", Span.total_ms spans "serve.start");
            ("serve.hit_ratio", hit_ratio tr);
            ("serve.hit_p50_ms", Common.median (List.map (fun s -> s.s_rt_ms) hits));
            ("serve.reply_bytes_p50", med (fun s -> float_of_int s.s_bytes));
            ("serve.encode_ms_p50", med (fun s -> s.s_encode_ms));
            ("serve.decode_ms_p50", med (fun s -> s.s_decode_ms));
            ( "serve.transport_ms_p50",
              med (fun s -> s.s_rt_ms -. s.s_elapsed_ms -. s.s_encode_ms -. s.s_decode_ms) );
            ("serve.miss_p50_ms", Common.median (List.map (fun s -> s.s_rt_ms) misses));
            ("serve.server_p50_ms", Common.median (List.map (fun s -> s.s_elapsed_ms) misses));
            ("serve.compute_p50_ms", Common.median compute_ms);
            ("serve.cache_misses", float_of_int barrier_misses);
            ("serve.coalesced", float_of_int (stats "coalesced"));
            ("serve.inline_runs", float_of_int (stats "inline_runs"));
            ("obs.overhead_frac", (rate plain /. rate traced) -. 1.0);
          ];
      counters = exact @ Steps.traced_counters spans;
      notes =
        base.Common.notes
        @ [ Printf.sprintf "untraced half %.1f answers/s, traced half %.1f answers/s" (rate plain) (rate traced) ];
      rows = Span.report spans;
      spans;
    }
  end
