(* Per-subprogram control-flow graph.

   Basic blocks hold straight-line instructions; structured control
   (if/elseif chains, counted and while loops, select case) becomes block
   edges.  Loops conservatively admit zero trips (the header branches both
   into the body and past it), `exit`/`cycle`/`return`/`stop` divert flow
   to the loop exit, loop header, or the subprogram exit block, and
   statements after a diverting statement start a fresh predecessor-less
   block so reachability analysis can flag them.  [Ast.Unparsed]
   statements ride along as ordinary instructions; their havoc semantics
   live in {!Defuse}. *)

open Rca_fortran

type instr =
  | Simple of Ast.stmt  (* Assign / Call / Print / Unparsed *)
  | Cond of Ast.expr * int  (* if / do-while condition and its line *)
  | Do_header of {
      dvar : string;
      dlo : Ast.expr;
      dhi : Ast.expr;
      dstep : Ast.expr option;
      dline : int;
    }
  | Select_header of { selector : Ast.expr; case_values : Ast.expr list; sline : int }

let instr_line = function
  | Simple st -> st.Ast.line
  | Cond (_, l) -> l
  | Do_header { dline; _ } -> dline
  | Select_header { sline; _ } -> sline

type t = {
  blocks : instr array array;  (* per block, execution order *)
  succ : int list array;
  pred : int list array;
  entry : int;
  exit_ : int;
  reachable : bool array;  (* from entry *)
}

let n_blocks t = Array.length t.blocks

(* ---- builder ----------------------------------------------------------------- *)

type bblock = { mutable instrs_rev : instr list; mutable bsucc_rev : int list }

type builder = { mutable bblocks : bblock array; mutable bcount : int }

let new_block b =
  if b.bcount = Array.length b.bblocks then begin
    let bigger =
      Array.init
        (2 * max 4 b.bcount)
        (fun i ->
          if i < b.bcount then b.bblocks.(i) else { instrs_rev = []; bsucc_rev = [] })
    in
    b.bblocks <- bigger
  end;
  b.bblocks.(b.bcount) <- { instrs_rev = []; bsucc_rev = [] };
  b.bcount <- b.bcount + 1;
  b.bcount - 1

let push b blk i = b.bblocks.(blk).instrs_rev <- i :: b.bblocks.(blk).instrs_rev

let edge b u v = b.bblocks.(u).bsucc_rev <- v :: b.bblocks.(u).bsucc_rev

type loop_ctx = { break_to : int; continue_to : int }

let build (s : Ast.subprogram) : t =
  let b = { bblocks = Array.init 8 (fun _ -> { instrs_rev = []; bsucc_rev = [] }); bcount = 0 } in
  let entry = new_block b in
  let exit_ = new_block b in
  (* returns the open block after the statements, None when flow diverted *)
  let rec go (ctx : loop_ctx option) (cur : int option) (sts : Ast.stmt list) : int option =
    match sts with
    | [] -> cur
    | st :: rest -> (
        (* a statement after a diversion opens a fresh, unreachable block *)
        let cur = match cur with Some c -> c | None -> new_block b in
        match st.Ast.node with
        | Ast.Assign _ | Ast.Call _ | Ast.Print _ | Ast.Unparsed _ ->
            push b cur (Simple st);
            go ctx (Some cur) rest
        | Ast.Return | Ast.Stop ->
            edge b cur exit_;
            go ctx None rest
        | Ast.Exit_loop ->
            (match ctx with
            | Some lc -> edge b cur lc.break_to
            | None -> edge b cur exit_ (* exit outside a loop: treat as return *));
            go ctx None rest
        | Ast.Cycle ->
            (match ctx with
            | Some lc -> edge b cur lc.continue_to
            | None -> edge b cur exit_);
            go ctx None rest
        | Ast.If (branches, els) ->
            let join = new_block b in
            let rec chain cond_blk = function
              | [] ->
                  (* no branches at all: fall through *)
                  edge b cond_blk join
              | (cond, body) :: more ->
                  push b cond_blk (Cond (cond, st.Ast.line));
                  let t = new_block b in
                  edge b cond_blk t;
                  (match go ctx (Some t) body with
                  | Some t' -> edge b t' join
                  | None -> ());
                  if more = [] then
                    match els with
                    | [] -> edge b cond_blk join
                    | _ ->
                        let f = new_block b in
                        edge b cond_blk f;
                        (match go ctx (Some f) els with
                        | Some e' -> edge b e' join
                        | None -> ())
                  else begin
                    let f = new_block b in
                    edge b cond_blk f;
                    chain f more
                  end
            in
            chain cur branches;
            go ctx (Some join) rest
        | Ast.Do { var; lo; hi; step; body } ->
            let head = new_block b in
            push b head (Do_header { dvar = var; dlo = lo; dhi = hi; dstep = step; dline = st.Ast.line });
            edge b cur head;
            let after = new_block b in
            edge b head after;
            let bentry = new_block b in
            edge b head bentry;
            let lc = { break_to = after; continue_to = head } in
            (match go (Some lc) (Some bentry) body with
            | Some e -> edge b e head
            | None -> ());
            go ctx (Some after) rest
        | Ast.Do_while (cond, body) ->
            let head = new_block b in
            push b head (Cond (cond, st.Ast.line));
            edge b cur head;
            let after = new_block b in
            edge b head after;
            let bentry = new_block b in
            edge b head bentry;
            let lc = { break_to = after; continue_to = head } in
            (match go (Some lc) (Some bentry) body with
            | Some e -> edge b e head
            | None -> ());
            go ctx (Some after) rest
        | Ast.Select (selector, cases, default) ->
            push b cur
              (Select_header
                 { selector; case_values = List.concat_map fst cases; sline = st.Ast.line });
            let join = new_block b in
            List.iter
              (fun (_, body) ->
                let e = new_block b in
                edge b cur e;
                match go ctx (Some e) body with
                | Some e' -> edge b e' join
                | None -> ())
              cases;
            (match default with
            | [] -> edge b cur join  (* no default: selector may match nothing *)
            | _ ->
                let d = new_block b in
                edge b cur d;
                (match go ctx (Some d) default with
                | Some d' -> edge b d' join
                | None -> ()));
            go ctx (Some join) rest)
  in
  (match go None (Some entry) s.Ast.s_body with
  | Some last -> edge b last exit_  (* implicit return *)
  | None -> ());
  let n = b.bcount in
  let blocks = Array.init n (fun i -> Array.of_list (List.rev b.bblocks.(i).instrs_rev)) in
  let succ =
    Array.init n (fun i -> List.sort_uniq compare (List.rev b.bblocks.(i).bsucc_rev))
  in
  let pred = Array.make n [] in
  Array.iteri (fun u vs -> List.iter (fun v -> pred.(v) <- u :: pred.(v)) vs) succ;
  Array.iteri (fun v ps -> pred.(v) <- List.rev ps) pred;
  let reachable = Array.make n false in
  let q = Queue.create () in
  reachable.(entry) <- true;
  Queue.add entry q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not reachable.(v) then begin
          reachable.(v) <- true;
          Queue.add v q
        end)
      succ.(u)
  done;
  { blocks; succ; pred; entry; exit_; reachable }

(* First line of every instruction sitting in a block unreachable from the
   entry — dead code behind returns/stops or unsatisfiable structure. *)
let unreachable_lines t =
  let acc = ref [] in
  Array.iteri
    (fun bid instrs ->
      if (not t.reachable.(bid)) && Array.length instrs > 0 then
        acc := instr_line instrs.(0) :: !acc)
    t.blocks;
  List.sort_uniq compare !acc

let n_instrs t = Array.fold_left (fun a instrs -> a + Array.length instrs) 0 t.blocks
