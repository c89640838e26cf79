(** Compiling Fortran source into a variable-dependency digraph with
    metadata (paper Section 4).

    Nodes are variables (module-level, locals, formals, derived-type
    components); a directed edge [x -> y] means the value of [x] enters an
    assignment of [y].  Fortran specifics follow the paper: atomic arrays,
    canonical names for derived-type chains, hash-table disambiguation of
    functions vs arrays, intent-aware call mapping, conservative interface
    handling, rename-resolving use-statements (no chaining), per-call-site
    intrinsic localization, and a three-stage parser fallback chain for
    statements beyond the structured parser. *)

type node = {
  canonical : string;  (** paper "canonical name": final derived component *)
  unique : string;  (** display name, [canonical ^ "__" ^ scope] *)
  module_ : string;
  subprogram : string;  (** [""] for module-level variables *)
  line : int;  (** first line the node was seen on *)
  synthetic : bool;
      (** localized intrinsic / PRNG pseudo-node: not a runtime-
          instrumentable variable *)
}

type build_stats = {
  mutable assignments_total : int;
  mutable parsed_primary : int;  (** handled by the structured parser *)
  mutable parsed_relaxed : int;  (** stage 2: balanced-split fallback *)
  mutable parsed_scraped : int;  (** stage 3: identifier scraping *)
  mutable unhandled : int;  (** beyond all three parsers *)
}

type t = {
  graph : Rca_graph.Digraph.t;
  mutable node_meta : node array;
  by_key : (string, int) Hashtbl.t;
  by_canonical : (string, int list) Hashtbl.t;
  io_map : (string, string list) Hashtbl.t;
      (** outfld label -> internal canonical names (Table 2's mapping,
          recovered from the I/O calls) *)
  edge_origins : (int * int, (string * string * int) list) Hashtbl.t;
      (** every (module, subprogram, line) whose statement contributed the
          edge — the raw material for {!Prune} *)
  stats : build_stats;
}

val edge_origins : t -> int -> int -> (string * string * int) list
(** Originating statements of the edge [u -> v]. *)

val build : Rca_fortran.Ast.program -> t
(** Compile a (build- and coverage-filtered) program into the digraph. *)

val node : t -> int -> node
val n_nodes : t -> int

val nodes_with_canonical : t -> string -> int list
(** Every node with the given canonical name — the slicing criterion of
    Section 5.1. *)

val io_internal_names : t -> string -> string list
(** Internal variables feeding the given history output. *)

val find_node : t -> module_:string -> sub:string -> name:string -> int option
(** Node stored under the (module, subprogram, name) key, if any.  [sub]
    is [""] for module-level variables; [name] is the name as written in
    the owning scope (members as ["base%field"], localized intrinsics as
    ["min_<line>"]). *)
