(* Span recorder for the traced runs.  Spans are taken around calls into
   the program's public functions from the benchmark's own files (no span
   is added inside the library), kept in memory, and written out when the
   run ends.  A span's self time is its duration minus the durations of
   its direct children; children never overlap one another because every
   recorded call is sequential on one thread (serve request spans, which
   do overlap, are separate roots). *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 for a section root *)
  req : int;  (* serve request id, -1 elsewhere *)
  t0 : int64;  (* monotonic ns *)
  t1 : int64;
}

let now = Rca_obs.Obs.monotonic_ns
let ms_of_ns d = Int64.to_float d /. 1e6
let ms_between t0 t1 = ms_of_ns (Int64.sub t1 t0)
let enabled = ref false
let recorded : t list ref = ref []  (* newest first *)
let next_id = ref 0
let stack : int list ref = ref []  (* open spans, innermost first *)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with id :: _ -> id | [] -> -1

let add ?(id = fresh ()) ?(req = -1) ?(parent = current ()) name t0 t1 =
  recorded := { id; name; parent; req; t0; t1 } :: !recorded;
  id

(* [with_ name f] runs [f ()] as a child of the innermost open span. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh () and parent = current () in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        recorded := { id; name; parent; req = -1; t0; t1 } :: !recorded)
      f
  end

(* Run [f] with the library's own Obs recorder on, then copy the Obs spans
   named in [rename] under the innermost open span.  Obs spans carry no
   parent, so nesting is rebuilt from interval containment; the library
   runs on one domain here, so its spans nest properly. *)
let with_obs ~rename f =
  if not !enabled then f ()
  else begin
    let base = now () in
    Rca_obs.Obs.enable ();
    let v = Fun.protect ~finally:Rca_obs.Obs.disable f in
    let ns_of_us us = Int64.add base (Int64.of_float (us *. 1e3)) in
    let picked =
      Rca_obs.Obs.spans ()
      |> List.filter_map (fun (s : Rca_obs.Obs.span_record) ->
             Option.map
               (fun name -> (name, s.ts_us, s.ts_us +. s.dur_us))
               (List.assoc_opt s.span_name rename))
      |> List.stable_sort (fun (_, a0, a1) (_, b0, b1) ->
             match compare a0 b0 with 0 -> compare b1 a1 | c -> c)
    in
    let outer = current () in
    let open_ = ref [] in
    List.iter
      (fun (name, s0, s1) ->
        while match !open_ with (_, e) :: _ -> s1 > e | [] -> false do
          open_ := List.tl !open_
        done;
        let parent = match !open_ with (id, _) :: _ -> id | [] -> outer in
        let id = add ~parent name (ns_of_us s0) (ns_of_us s1) in
        open_ := (id, s1) :: !open_)
      picked;
    v
  end

(* --- report ----------------------------------------------------------------- *)

type row = { section : string; layer : string; count : int; total_ms : float; self_ms : float; share : float }

(* One row per (section, span name).  A section is a root span name
   ("setup", "pass", "requests", ...); a row's share is its self time over
   the section's total, and the section root's own row is the time no
   named layer covers — the unattributed remainder. *)
let report spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (Int64.add (Int64.sub s.t1 s.t0)
             (Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent))))
    spans;
  let rec section s =
    if s.parent < 0 then s.name
    else match Hashtbl.find_opt by_id s.parent with Some p -> section p | None -> s.name
  in
  let rows = Hashtbl.create 64 and order = ref [] and totals = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let dur = Int64.sub s.t1 s.t0 in
      let self = Int64.sub dur (Option.value ~default:0L (Hashtbl.find_opt child_ns s.id)) in
      let sec = section s in
      if s.parent < 0 then
        Hashtbl.replace totals sec
          (Int64.add dur (Option.value ~default:0L (Hashtbl.find_opt totals sec)));
      let key = (sec, s.name) in
      match Hashtbl.find_opt rows key with
      | None ->
          order := key :: !order;
          Hashtbl.replace rows key (1, dur, self)
      | Some (c, d, f) -> Hashtbl.replace rows key (c + 1, Int64.add d dur, Int64.add f self))
    (List.sort (fun a b -> compare a.id b.id) spans);
  List.rev_map
    (fun ((sec, layer) as key) ->
      let c, d, f = Hashtbl.find rows key in
      let total = Option.value ~default:0L (Hashtbl.find_opt totals sec) in
      {
        section = sec;
        layer;
        count = c;
        total_ms = ms_of_ns d;
        self_ms = ms_of_ns f;
        share = (if total > 0L then Int64.to_float f /. Int64.to_float total else 0.0);
      })
    !order

let total_ms spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. ms_between s.t0 s.t1 else acc)
    0.0 spans

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

let durations_ms spans name =
  List.filter_map (fun s -> if s.name = name then Some (ms_between s.t0 s.t1) else None) spans

module J = Rca_serve.Jsonio

let row_json r =
  J.Obj
    [
      ("section", J.Str r.section);
      ("layer", J.Str r.layer);
      ("count", J.num r.count);
      ("total_ms", J.Num r.total_ms);
      ("self_ms", J.Num r.self_ms);
      ("share", J.Num r.share);
    ]

let span_json s =
  J.Obj
    [
      ("id", J.num s.id);
      ("name", J.Str s.name);
      ("parent", J.num s.parent);
      ("req", J.num s.req);
      ("start_ns", J.Num (Int64.to_float s.t0));
      ("end_ns", J.Num (Int64.to_float s.t1));
    ]

(* Spans and the layer report as one JSON document. *)
let write path spans rows =
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj [ ("report", J.Arr (List.map row_json rows)); ("spans", J.Arr (List.rev_map span_json spans)) ]));
  output_char oc '\n';
  close_out oc
