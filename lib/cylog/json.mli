(** The one JSON dialect behind every observable surface: metrics, spans,
    the monitor, quality reports, certificates, lint diagnostics, the
    fleet view and the [BENCH_*.json] artifacts all build a {!t} here.

    Object members print in list order. Strings escape the double quote,
    the backslash and every byte below [0x20]; bytes from [0x80] pass
    through, so UTF-8 stays UTF-8. A float prints as the shortest decimal
    that reads back as the same float, always with a [.] or an exponent
    ([1.0], not [1]); NaN and infinities print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact: one line, no whitespace between tokens. *)

val to_string_pretty : t -> string
(** Two-space indent, one member or element per line, no trailing
    newline; empty containers print as [{}] and [[]]. *)

val of_string : string -> (t, int) result
(** RFC 8259: the input is exactly one value, optionally surrounded by
    whitespace; [Error off] is the byte offset of the first error. A
    number with no fraction or exponent that fits an [int] is an {!Int},
    any other a {!Float}. [\u] escapes decode to UTF-8 (a lone surrogate
    is an error); other bytes are taken as they are. *)
