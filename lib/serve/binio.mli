(** Shared binary framing for lib/serve's on-disk artifacts: model
    snapshots ({!Snapshot}) and persisted query caches ({!Cache}) both
    use the same little-endian primitives and the same framed-file
    layout — 8-byte magic, version, payload length, FNV-1a 64 checksum,
    payload.  Writers are atomic (temp + rename); readers return every
    damage mode as a distinct [Error] instead of raising. *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit hash — the checksum both formats store. *)

(** {1 Payload writers (little-endian, over [Buffer])} *)

val w_i64 : Buffer.t -> int64 -> unit
val w_int : Buffer.t -> int -> unit
val w_byte : Buffer.t -> bool -> unit

val w_str : Buffer.t -> string -> unit
(** Length-prefixed bytes. *)

val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
(** Count-prefixed sequence. *)

(** {1 Payload readers}

    All readers raise {!Corrupt} (with a human-readable cause) on
    malformed input; framing functions catch it and return [Error]. *)

exception Corrupt of string

type reader = { data : string; mutable pos : int }

val reader : string -> reader

val at_end : reader -> bool
(** Whether the cursor has consumed every payload byte. *)

val r_i64 : reader -> int64
val r_int : reader -> int

val r_len : reader -> string -> int
(** [r_len r what] reads a count/length and rejects negative or
    implausibly large values, naming [what] in the error. *)

val r_byte : reader -> bool
val r_str : reader -> string
val r_list : reader -> (reader -> 'a) -> 'a list

(** {1 Framed files} *)

val write_framed : magic:string -> version:int -> string -> (Buffer.t -> unit) -> unit
(** [write_framed ~magic ~version path fill] runs [fill] to produce the
    payload, then writes header + payload atomically (temp + rename).
    [magic] must be exactly 8 bytes. *)

val read_framed :
  magic:string -> version:int -> kind:string -> string -> (string, string) result
(** Read [path], verify magic/version/length/checksum, and return the
    payload bytes.  Never raises; [kind] ("snapshot", "cache") names
    the artifact in error messages. *)
