(* Line-protocol parser.  Pure by construction (and verified so by
   effectkit): the ingest path runs once per request, concurrently
   with batching, and must never raise on client input.

   One index scan over the line, no substrings and no field list: the
   only allocation on an accepted line is its result.  Substrings are
   cut only to name the offending token in an error. *)

type line = Request of int * int | Blank

let is_blank c = Char.equal c ' ' || Char.equal c '\t'

(* String.trim's whitespace set, so CRLF clients still parse. *)
let is_trim c =
  is_blank c || Char.equal c '\r' || Char.equal c '\n' || Char.equal c '\012'

let is_field c = not (is_blank c || Char.equal c ',')

let is_digit c =
  let d = Char.code c - Char.code '0' in
  d >= 0 && d <= 9

(* First index in [i, hi) whose character fails [p], else [hi]. *)
let rec skip p s i hi = if i < hi && p s.[i] then skip p s (i + 1) hi else i

let rec rtrim s hi = if hi > 0 && is_trim s.[hi - 1] then rtrim s (hi - 1) else hi

(* Maximal runs of field characters in [i, hi): the field count a
   wrong-arity error reports. *)
let rec count_fields s i hi acc =
  let i = skip (fun c -> not (is_field c)) s i hi in
  if i >= hi then acc else count_fields s (skip is_field s i hi) hi (acc + 1)

let arity_error s lo hi =
  Error
    (Printf.sprintf "expected 2 fields (src,dst), got %d"
       (count_fields s lo hi 0))

(* Decimal value of the digits in [i, hi), saturated at [cap] so an
   overlong field cannot overflow. *)
let rec decimal s i hi ~cap acc =
  if i >= hi then acc
  else
    let acc = (acc * 10) + (Char.code s.[i] - Char.code '0') in
    decimal s (i + 1) hi ~cap (if acc > cap then cap else acc)

(* The endpoint in [lo, hi): its value, saturated at [n], when it is
   decimal digits only (no sign, radix prefix or underscores); else -1. *)
let endpoint ~n s lo hi =
  if lo >= hi || skip is_digit s lo hi < hi then -1
  else decimal s lo hi ~cap:n 0

let token s lo hi = String.sub s lo (hi - lo)

(* effect: pure *)
let parse_line ~n s =
  let hi = rtrim s (String.length s) in
  let lo = skip is_trim s 0 hi in
  if lo >= hi || Char.equal s.[lo] '#' then Ok Blank
  else
    (* src = [lo, e1); the separator is one comma with optional
       spaces/tabs around it, or a run of spaces/tabs; dst = [k, e2). *)
    let e1 = skip is_field s lo hi in
    let b = skip is_blank s e1 hi in
    let k =
      if b < hi && Char.equal s.[b] ',' then skip is_blank s (b + 1) hi else b
    in
    let e2 = skip is_field s k hi in
    if e1 >= hi then arity_error s lo hi
    else if Int.equal e1 lo || Int.equal e2 k then
      Error "empty field: separate src and dst by one comma or by spaces/tabs"
    else if e2 < hi then arity_error s lo hi
    else
      let src = endpoint ~n s lo e1 and dst = endpoint ~n s k e2 in
      if src < 0 then Error (Printf.sprintf "not an integer: %S" (token s lo e1))
      else if dst < 0 then
        Error (Printf.sprintf "not an integer: %S" (token s k e2))
      else if src >= n then
        Error
          (Printf.sprintf "src %s out of range [0, %d)" (token s lo e1) n)
      else if dst >= n then
        Error
          (Printf.sprintf "dst %s out of range [0, %d)" (token s k e2) n)
      else if Int.equal src dst then Error (Printf.sprintf "src = dst (%d)" src)
      else Ok (Request (src, dst))
