(** Minimal strict JSON reader and string writer (no external
    dependencies).

    Parses the JSON this repository itself emits — [BENCH_*.json] bench
    results and [bench/baselines/*.json] regression-gate baselines — for
    the {!Gate} checker and the [fractos diff] tooling. Numbers are
    floats, objects preserve key order, duplicate keys resolve to the
    first occurrence via {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val escape : Buffer.t -> string -> unit
(** Append the body of a JSON string literal: quote, backslash and
    control characters escaped, every other byte as is. *)

val quote : string -> string
(** [s] as a complete JSON string literal, quotes included. *)

val parse : string -> (t, string) result
(** Strict parse of a complete document (trailing garbage is an error;
    so is a backslash escape other than quote, backslash, slash, [b],
    [f], [n], [r], [t] or [u]). *)

val of_file : string -> (t, string) result
(** {!parse} the contents of a file; I/O errors become [Error] too. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_bool : t -> bool option

val number_at : string list -> t -> float option
val string_at : string list -> t -> string option
