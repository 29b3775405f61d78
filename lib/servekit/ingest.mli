(** The serve-mode line protocol (docs/SERVING.md): one request per
    line, [src,dst] or [src dst] over nodes [0 .. n-1], with blank
    lines and [#]-comments ignored.  Endpoints are decimal digits
    only; the separator is one comma (spaces/tabs around it allowed)
    or a run of spaces/tabs.  The same grammar is accepted on
    stdin, Unix-domain sockets and TCP connections.  Parsing is pure
    — malformed lines are reported, never raised — so a hostile or
    sloppy client cannot take the daemon down. *)

type line =
  | Request of int * int  (** A validated [src, dst] pair. *)
  | Blank  (** Empty line or [#] comment: ignored. *)

val parse_line : n:int -> string -> (line, string) result
(** Parse one protocol line (a trailing ['\r'] is tolerated, so CRLF
    clients work).  Errors name the offending token: non-decimal
    fields, out-of-range endpoints, [src = dst], an empty field
    (["1,,5"]), or a wrong field count.  An accepted line allocates
    only its result. *)
