(** The one JSON codec: serve protocol lines and every JSON artifact.
    Parsing never raises: malformed input comes back as [Error msg] so
    the server can turn garbage into a protocol-level error reply.
    Printing is compact and escapes control characters; numbers print
    exactly when integral and below 1e15, with 12 significant digits
    otherwise, and as [null] when not finite.  {!add} prints a value
    straight into the caller's buffer (the daemon writes each reply into
    its connection's output buffer); {!to_string} and {!to_file} wrap
    it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace bytes and
    arrays or objects nested more than 64 deep are errors. *)

val add : Buffer.t -> t -> unit
(** [add buf v] appends the compact rendering of [v] to [buf]; it never
    writes a newline, so a value plus ['\n'] is a valid protocol frame. *)

val to_string : t -> string
(** Compact single-line rendering (never contains a newline, so a
    printed value plus ["\n"] is a valid protocol frame). *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] and a newline to [path]. *)

(** {1 Accessors} — shape-checking helpers that return [None] on a
    type mismatch instead of raising. *)

val member : string -> t -> t option
(** [member key v] is the field [key] of object [v]. *)

val string_opt : t -> string option
val int_opt : t -> int option
val list_opt : t -> t list option

val num : int -> t
(** [num i] is [Num (float_of_int i)]. *)
