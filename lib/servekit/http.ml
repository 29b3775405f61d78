(* Tiny HTTP/1.0 answering machine for metric scrapes.  The protocol
   surface is deliberately one request line deep; headers from the
   client are read and ignored. *)

let response ?(status = "200 OK")
    ?(content_type = "text/plain; version=0.0.4") body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* effect: pure *)
let request_target line =
  match String.split_on_char ' ' (String.trim line) with
  | meth :: target :: _ -> Some (meth, target)
  | _ -> None

let route line ~path ~body =
  match request_target line with
  | Some ("GET", target) when String.equal target path -> response (body ())
  | Some ("GET", _) ->
      response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found\n"
  | Some _ ->
      response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "method not allowed\n"
  | None ->
      response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"

(* The serve loop has one thread, so a client that connects and then
   sends nothing (or never reads its reply) must not hold it: both
   socket calls give up after this many seconds. *)
let io_timeout = 1.0

let handle fd ~path ~body =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout
   with Unix.Unix_error _ -> ());
  let buf = Bytes.create 1024 in
  let request_line =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error _ -> ""
    | 0 -> ""
    | k -> (
        let s = Bytes.sub_string buf 0 k in
        match String.index_opt s '\n' with
        | Some nl -> String.sub s 0 nl
        | None -> s)
  in
  let reply = route request_line ~path ~body in
  let rec write_all off =
    if off < String.length reply then
      match Unix.write_substring fd reply off (String.length reply - off) with
      | exception Unix.Unix_error _ -> ()
      | 0 -> ()
      | k -> write_all (off + k)
  in
  write_all 0;
  try Unix.close fd with Unix.Unix_error _ -> ()
