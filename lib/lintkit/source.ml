(* Lexical view of one OCaml source file.  The compiler-libs parser
   discards comments, so everything comment-borne — [(* lint: allow
   ... *)] suppressions and [(* lint: hot *)] region markers — is
   recovered here by a small scanner that understands nested comments,
   string literals (including [{tag|...|tag}] quoted strings) and
   character literals, mirroring the real lexer closely enough for
   valid source files. *)

type comment = { text : string; start_line : int; end_line : int }

type t = {
  path : string;
  code : string;
  lines : string array;
  comments : comment list;
  allows : (int * int * string list) list;  (* lo, hi (incl.), rules *)
  hot : (int * int) list;  (* inclusive line ranges *)
  errors : (int * string) list;
}

let path t = t.path
let code t = t.code
let lines t = t.lines
let comments t = t.comments
let directive_errors t = t.errors

let split_lines code =
  let lines = String.split_on_char '\n' code in
  (* A trailing newline produces a final empty "line" that no source
     position can refer to; drop it. *)
  let lines =
    match List.rev lines with
    | "" :: rest when not (List.is_empty rest) -> List.rev rest
    | _ -> lines
  in
  Array.of_list lines

(* Index -> 1-based line, via the sorted offsets of line starts. *)
let line_starts code =
  let starts = ref [ 0 ] in
  String.iteri
    (fun i c -> if Char.equal c '\n' then starts := (i + 1) :: !starts)
    code;
  Array.of_list (List.rev !starts)

let line_of starts i =
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo + 1

(* Position just past the closing quote of a ["..."] literal whose
   opening quote sits at [i - 1]. *)
let rec string_end code n i =
  if i >= n then n
  else
    match code.[i] with
    | '\\' -> string_end code n (i + 2)
    | '"' -> i + 1
    | _ -> string_end code n (i + 1)

let find_sub code sub from =
  let n = String.length code and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub code i m) sub then Some i
    else go (i + 1)
  in
  go from

(* [i] sits on a '{'.  Some j past the closing [|tag}] when this opens
   a quoted string, None otherwise. *)
let quoted_string_end code n i =
  let j = ref (i + 1) in
  while
    !j < n && (match code.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
  do
    incr j
  done;
  if !j < n && Char.equal code.[!j] '|' then begin
    let tag = String.sub code (i + 1) (!j - i - 1) in
    let close = "|" ^ tag ^ "}" in
    match find_sub code close (!j + 1) with
    | Some k -> Some (k + String.length close)
    | None -> Some n
  end
  else None

(* [i] sits on a single quote.  Some j past the literal when this is a
   character literal, None when it is a type variable or a name's
   prime suffix. *)
let char_literal_end code n i =
  if i + 1 < n && Char.equal code.[i + 1] '\\' then begin
    let j = ref (i + 2) in
    while !j < n && not (Char.equal code.[!j] '\'') do
      incr j
    done;
    Some (!j + 1)
  end
  else if i + 2 < n && Char.equal code.[i + 2] '\'' then Some (i + 3)
  else None

(* [i] is just past an opening "(*".  Position just past the matching
   "*)", honouring nesting and embedded (quoted) strings. *)
let rec comment_end code n i depth =
  if i >= n then n
  else if i + 1 < n && Char.equal code.[i] '(' && Char.equal code.[i + 1] '*'
  then comment_end code n (i + 2) (depth + 1)
  else if i + 1 < n && Char.equal code.[i] '*' && Char.equal code.[i + 1] ')'
  then if depth <= 1 then i + 2 else comment_end code n (i + 2) (depth - 1)
  else if Char.equal code.[i] '"' then
    comment_end code n (string_end code n (i + 1)) depth
  else if Char.equal code.[i] '{' then
    match quoted_string_end code n i with
    | Some j -> comment_end code n j depth
    | None -> comment_end code n (i + 1) depth
  else comment_end code n (i + 1) depth

(* All comments as (start index, end index) spans, in file order. *)
let scan code =
  let n = String.length code in
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = code.[!i] in
    if Char.equal c '(' && !i + 1 < n && Char.equal code.[!i + 1] '*' then begin
      let stop = comment_end code n (!i + 2) 1 in
      spans := (!i, stop) :: !spans;
      i := stop
    end
    else if Char.equal c '"' then i := string_end code n (!i + 1)
    else if Char.equal c '{' then
      match quoted_string_end code n !i with
      | Some j -> i := j
      | None -> incr i
    else if Char.equal c '\'' then
      match char_literal_end code n !i with
      | Some j -> i := j
      | None -> incr i
    else incr i
  done;
  List.rev !spans

type directive = Allow of string list | Hot | Hot_end

let is_separator tok =
  String.equal tok "--" || String.equal tok "\xe2\x80\x94" (* em dash *)

let rule_name_ok tok =
  String.length tok > 0
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
       tok

(* [Some (Ok d)] for a well-formed [lint:] directive, [Some (Error m)]
   for a malformed one, [None] for an ordinary comment. *)
let directive_of_text ~known text =
  let text = String.trim text in
  let prefix = "lint:" in
  let plen = String.length prefix in
  if String.length text < plen || not (String.equal (String.sub text 0 plen) prefix)
  then None
  else
    let rest = String.sub text plen (String.length text - plen) in
    let tokens =
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char '\t')
      |> List.concat_map (String.split_on_char '\n')
      |> List.filter (fun s -> not (String.equal s ""))
    in
    match tokens with
    | [ "hot" ] -> Some (Ok Hot)
    | [ "hot-end" ] -> Some (Ok Hot_end)
    | "hot" :: _ -> Some (Error "lint: hot takes no arguments")
    | "hot-end" :: _ -> Some (Error "lint: hot-end takes no arguments")
    | "allow" :: rest -> (
        let rec take acc = function
          | tok :: tl when not (is_separator tok) -> take (tok :: acc) tl
          | _ -> List.rev acc
        in
        let rules = take [] rest in
        match rules with
        | [] -> Some (Error "lint: allow needs at least one rule name")
        | rules -> (
            match
              List.find_opt
                (fun r -> (not (rule_name_ok r)) || not (known r))
                rules
            with
            | Some bad ->
                Some
                  (Error
                     (Printf.sprintf
                        "unknown rule %S in lint: allow (separate the \
                         justification with --)"
                        bad))
            | None -> Some (Ok (Allow rules))))
    | kw :: _ -> Some (Error (Printf.sprintf "unknown lint directive %S" kw))
    | [] -> Some (Error "empty lint directive")

let of_string ?(known = fun _ -> true) ~path code =
  let lines = split_lines code in
  let starts = line_starts code in
  let spans = scan code in
  let comments =
    List.map
      (fun (lo, hi) ->
        let body_lo = lo + 2 in
        let body_hi = Stdlib.max body_lo (hi - 2) in
        {
          text = String.sub code body_lo (body_hi - body_lo);
          start_line = line_of starts lo;
          end_line = line_of starts (Stdlib.max lo (hi - 1));
        })
      spans
  in
  let allows = ref [] in
  let errors = ref [] in
  let hot_open = ref None in
  let hot = ref [] in
  List.iter
    (fun c ->
      match directive_of_text ~known c.text with
      | None -> ()
      | Some (Error msg) -> errors := (c.start_line, msg) :: !errors
      | Some (Ok (Allow rules)) ->
          (* A suppression covers every line the comment spans plus the
             line right after it, so both end-of-line and line-above
             placement work. *)
          allows := (c.start_line, c.end_line + 1, rules) :: !allows
      | Some (Ok Hot) -> (
          match !hot_open with
          | None -> hot_open := Some c.start_line
          | Some _ ->
              errors :=
                (c.start_line, "lint: hot region is already open") :: !errors)
      | Some (Ok Hot_end) -> (
          match !hot_open with
          | Some lo ->
              hot := (lo, c.start_line) :: !hot;
              hot_open := None
          | None ->
              errors :=
                (c.start_line, "lint: hot-end without an open hot region")
                :: !errors))
    comments;
  (match !hot_open with
  | Some lo -> hot := (lo, Array.length lines) :: !hot
  | None -> ());
  {
    path;
    code;
    lines;
    comments;
    allows = List.rev !allows;
    hot = List.rev !hot;
    errors = List.rev !errors;
  }

let load ?known p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let code = really_input_string ic (in_channel_length ic) in
      of_string ?known ~path:p code)

let allowed t ~line ~rule =
  List.exists
    (fun (lo, hi, rules) ->
      lo <= line && line <= hi && List.exists (String.equal rule) rules)
    t.allows

let in_hot t ~line =
  List.exists (fun (lo, hi) -> lo <= line && line <= hi) t.hot
