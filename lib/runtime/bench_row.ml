type value = Str of string | Int of int
type row = { key : (string * value) list; metrics : (string * float) list }
type host = { cores : int; ocaml : string; commit : string }
type t = { suite : string; host : host; timestamp : string; rows : row list }

exception Parse_error of string

type better = Higher | Lower

type check = Input | Info | Advisory of better | Gate of better

(* What each producer's metrics mean.  Delivered counts are better
   high, except a forest's, which count both legs of every cross-shard
   request; a phase's share of the round wall can only grow at another
   phase's expense. *)
let check ~suite name =
  match (suite, name) with
  | _, ("seeds" | "requests") -> Input
  | "profile", "share" -> Info
  | "perf", "rounds_per_sec" -> Gate Higher
  | "forest", "messages" -> Advisory Lower
  | _, ("throughput" | "rounds_per_sec" | "msgs_per_sec" | "hops_per_sec" | "messages" | "admitted")
    ->
      Advisory Higher
  | _ -> Advisory Lower

let bound = 0.2

let make ~suite ~commit ~timestamp rows =
  {
    suite;
    host =
      {
        cores = Domain.recommended_domain_count ();
        ocaml = Sys.ocaml_version;
        commit;
      };
    timestamp;
    rows;
  }

(* --- JSON ---------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Text of string
  | List of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest text that reads back to the same float; JSON has no
   non-finite numbers, so those become null. *)
let number x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* The root object, its host and its two lists break one member per
   line; each declaration and each row stays on one line. *)
let rec print b depth = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num x -> Buffer.add_string b (number x)
  | Text s -> Printf.bprintf b "\"%s\"" (escape s)
  | List xs -> seq b depth '[' ']' (print b (depth + 1)) xs
  | Obj kvs ->
      seq b depth '{' '}'
        (fun (k, v) ->
          Printf.bprintf b "\"%s\": " (escape k);
          print b (depth + 1) v)
        kvs

and seq : 'a. Buffer.t -> int -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b depth op cl item xs ->
  let brk = depth < 2 && xs <> [] in
  let indent d = if brk then Printf.bprintf b "\n%s" (String.make (2 * d) ' ') in
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b (if brk then "," else ", ");
      indent (depth + 1);
      item x)
    xs;
  indent depth;
  Buffer.add_char b cl

(* A recursive-descent parser for the JSON subset above: objects,
   arrays, strings with escapes, numbers, booleans and null. *)
let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let hex_digit () =
    advance ();
    match peek () with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' when !pos >= n -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* Exactly four hex digits; the shared advance below
                 steps past the last one. *)
              let code = ref 0 in
              for _ = 1 to 4 do
                code := (!code * 16) + hex_digit ()
              done;
              if Uchar.is_valid !code then
                Buffer.add_utf_8_uchar b (Uchar.of_int !code)
              else fail "surrogate \\u escape"
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numchar (peek ()) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        Obj
          (items '}' (fun () ->
               skip_ws ();
               expect '"';
               let k = string_body () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' -> List (items ']' value)
    | '"' ->
        advance ();
        Text (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (number ())
    | _ -> fail "unexpected character"
  (* The comma-separated items after an opening bracket, through
     [close]. *)
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    advance ();
    skip_ws ();
    let rec go acc =
      let acc = item () :: acc in
      skip_ws ();
      match peek () with
      | ',' ->
          advance ();
          go acc
      | c when c = close ->
          advance ();
          List.rev acc
      | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
    in
    if peek () = close then begin
      advance ();
      []
    end
    else go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- the schema ---------------------------------------------------- *)

let to_json t =
  let value = function Str s -> Text s | Int i -> Num (float_of_int i) in
  Obj
    [
      ("suite", Text t.suite);
      ( "host",
        Obj
          [
            ("cores", Num (float_of_int t.host.cores));
            ("ocaml", Text t.host.ocaml);
            ("commit", Text t.host.commit);
          ] );
      ("timestamp", Text t.timestamp);
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("key", Obj (List.map (fun (k, v) -> (k, value v)) r.key));
                   ( "metrics",
                     Obj (List.map (fun (k, x) -> (k, Num x)) r.metrics) );
                 ])
             t.rows) );
    ]

let of_json j =
  let bad what = raise (Parse_error ("schema: expected " ^ what)) in
  let field k = function
    | Obj kvs -> (
        match List.assoc_opt k kvs with Some v -> v | None -> bad ("field " ^ k))
    | _ -> bad ("an object holding " ^ k)
  in
  let text = function Text s -> s | _ -> bad "a string" in
  let int = function
    | Num f when Float.is_integer f -> int_of_float f
    | _ -> bad "an integer"
  in
  let float = function Num f -> f | Null -> Float.nan | _ -> bad "a number" in
  let members = function Obj kvs -> kvs | _ -> bad "an object" in
  let elements = function List xs -> xs | _ -> bad "an array" in
  let row r =
    {
      key =
        List.map
          (fun (k, v) -> (k, match v with Text s -> Str s | v -> Int (int v)))
          (members (field "key" r));
      metrics = List.map (fun (k, v) -> (k, float v)) (members (field "metrics" r));
    }
  in
  let host = field "host" j in
  {
    suite = text (field "suite" j);
    host =
      {
        cores = int (field "cores" host);
        ocaml = text (field "ocaml" host);
        commit = text (field "commit" host);
      };
    timestamp = text (field "timestamp" j);
    rows = List.map row (elements (field "rows" j));
  }

let write path t =
  let b = Buffer.create 4096 in
  print b 0 (to_json t);
  Buffer.add_char b '\n';
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

let read path = of_json (parse (In_channel.with_open_bin path In_channel.input_all))

(* --- the comparator ------------------------------------------------ *)

let pp_key ppf key =
  List.iteri
    (fun i (k, v) ->
      Format.fprintf ppf "%s%s=%s" (if i > 0 then " " else "") k
        (match v with Str s -> s | Int i -> string_of_int i))
    key

let pp_value ppf x =
  if Float.is_integer x then Format.fprintf ppf "%.0f" x
  else if Float.abs x >= 1000.0 then Format.fprintf ppf "%.1f" x
  else Format.fprintf ppf "%.4g" x

let pp_row names ppf r =
  pp_key ppf r.key;
  List.iter
    (fun k -> Format.fprintf ppf " %s=%a" k pp_value (List.assoc k r.metrics))
    names

let compare ppf ~baseline current =
  if baseline.suite <> current.suite then
    Error
      (Printf.sprintf "suite mismatch: baseline is %S, current is %S"
         baseline.suite current.suite)
  else begin
    let host h =
      Printf.sprintf "cores=%d ocaml=%s commit=%s" h.cores h.ocaml h.commit
    in
    Format.fprintf ppf "suite %s: baseline %s; current %s@." baseline.suite
      (host baseline.host) (host current.host);
    let matched = ref 0 and checks = ref 0 and failures = ref 0 in
    let trends = ref 0 in
    let compare_metric key (c : row) (name, a) =
      match (check ~suite:baseline.suite name, List.assoc_opt name c.metrics) with
      | Input, _ -> ()
      | kind, Some b when Float.is_finite a && Float.is_finite b ->
          let change =
            if a <> 0.0 then Printf.sprintf "%+.1f%%" ((b -. a) /. a *. 100.0)
            else if b = 0.0 then "+0.0%"
            else "from zero"
          in
          let beyond better =
            let worse = match better with Higher -> a -. b | Lower -> b -. a in
            worse > bound *. Float.abs a
          in
          let tag =
            match kind with
            | Gate better ->
                incr checks;
                if beyond better then (
                  incr failures;
                  "FAIL ")
                else "ok   "
            | Advisory better when beyond better ->
                incr trends;
                "trend"
            | _ -> "info "
          in
          Format.fprintf ppf "%s %a: %s %a -> %a (%s)@." tag pp_key key name
            pp_value a pp_value b change
      | _ -> Format.fprintf ppf "SKIP  %a: %s missing@." pp_key key name
    in
    List.iter
      (fun (o : row) ->
        match List.find_opt (fun (c : row) -> c.key = o.key) current.rows with
        | None -> Format.fprintf ppf "SKIP  %a: only in baseline@." pp_key o.key
        | Some c ->
            incr matched;
            List.iter (compare_metric o.key c) o.metrics)
      baseline.rows;
    List.iter
      (fun (c : row) ->
        if not (List.exists (fun (o : row) -> o.key = c.key) baseline.rows) then
          Format.fprintf ppf "NEW   %a: only in current@." pp_key c.key)
      current.rows;
    Format.fprintf ppf
      "compared %d rows: %d failure(s) in %d gated check(s), %d advisory \
       trend(s) beyond %.0f%%@."
      !matched !failures !checks !trends (bound *. 100.0);
    Ok !failures
  end
