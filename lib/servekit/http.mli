(** Minimal HTTP/1.0 responder for the live [/metrics] endpoint.  One
    request per connection, no keep-alive, no TLS: exactly enough for
    a Prometheus scraper or [curl].  The response builders are pure
    (and unit-tested as such); only {!handle} touches the socket. *)

(* lint: allow unused-export -- test_servekit routes requests without a socket *)
val route : string -> path:string -> body:(unit -> string) -> string
(** [route request_line ~path ~body] dispatches a request line
    ("GET /metrics HTTP/1.1"): [body ()] wrapped as 200 when the
    method is GET and the target matches [path], 404 otherwise,
    405 for non-GET methods. *)

val handle : Unix.file_descr -> path:string -> body:(unit -> string) -> unit
(** Read one request from an accepted connection, write the routed
    response, close the descriptor.  The read and the write each give
    up after one second (a client that connects and stays silent is
    answered 400), and read/write errors are swallowed (the descriptor
    is still closed): a half-open scraper must not take the serve loop
    down or hold it. *)
