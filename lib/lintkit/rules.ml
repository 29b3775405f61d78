(* The Parsetree-level lint rules.  Everything here is syntactic: the
   checks run on the untyped AST (compiler-libs [Parse] +
   [Ast_iterator]), so each rule is an approximation of the semantic
   property it guards, tuned to the idioms of this codebase and
   documented in docs/LINTING.md.  False positives are silenced with
   [(* lint: allow <rule> -- why *)] (see {!Source}). *)

open Parsetree

let all =
  [
    ( "catch-all",
      "try/match handler that silently drops the caught exception" );
    ( "lock-safety",
      "Mutex.lock whose unlock is not exception-safe (use Pool.with_lock \
       or Fun.protect)" );
    ( "no-poly-compare",
      "structural =/<>/compare/Hashtbl.hash in lib/core or lib/bstnet" );
    ( "no-alloc",
      "allocation (lists, arrays, tuples, closures, List./Printf. calls) \
       inside a (* lint: hot *) region" );
    ("no-stdout", "printing to stdout from lib/ (use Obskit or Runtime.Export)");
    ("mli-coverage", "lib/ module without an interface file");
    ("whitespace", "tab characters or trailing whitespace");
    (* The effectkit rules (interprocedural; implemented as an
       engine pass in lib/effectkit, plugged in by bin/cbnet_lint). *)
    ( "effect-pure",
      "(* effect: pure *) function with a transitive write, \
       nondeterminism, or an unknown callee" );
    ( "determinism",
      "clock/RNG/poly-hash/domain-identity source in lib/core, lib/bstnet, \
       lib/forest or lib/servekit (Servekit.Vclock reads wall time only \
       through Obskit.Clock, outside the scope)" );
    ( "unused-export",
      "lib/ .mli value that bin/, bench/, examples/ and perfbench/ never \
       reach from outside its module" );
  ]

let known rule = List.exists (fun (r, _) -> String.equal r rule) all

type ctx = {
  relpath : string;
  enabled : string -> bool;
  hot : int -> bool;  (* 1-based line inside a hot region? *)
  report : line:int -> col:int -> rule:string -> string -> unit;
}

let position (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)

let loc_key (loc : Location.t) =
  let line, col = position loc in
  Printf.sprintf "%d:%d" line col

(* Longident as a dotted string; "" for functor applications. *)
let rec flatten_lid acc = function
  | Longident.Lident s -> Some (s :: acc)
  | Longident.Ldot (l, s) -> flatten_lid (s :: acc) l
  | Longident.Lapply _ -> None

let lid_name lid =
  match flatten_lid [] lid with
  | Some parts -> String.concat "." parts
  | None -> ""

let strip_stdlib name =
  let p = "Stdlib." in
  let plen = String.length p in
  if String.length name > plen && String.equal (String.sub name 0 plen) p then
    String.sub name plen (String.length name - plen)
  else name

let ident_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> strip_stdlib (lid_name txt)
  | _ -> ""

let starts_with ~prefix s =
  let plen = String.length prefix in
  String.length s >= plen && String.equal (String.sub s 0 plen) prefix

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then false
    else String.equal (String.sub s i m) sub || go (i + 1)
  in
  go 0

(* Rule scoping, matching the invariants' blast radius: polymorphic
   comparison is a correctness trap where node/message records flow
   (lib/core, lib/bstnet); stdout discipline applies to all libraries. *)
let poly_compare_scope relpath =
  contains_sub relpath "lib/core/" || contains_sub relpath "lib/bstnet/"

let lib_scope relpath =
  starts_with ~prefix:"lib/" relpath || contains_sub relpath "/lib/"

(* A handler pattern that catches everything without keeping the
   exception: [_], or a binder spelled as intentionally unused. *)
let rec drops_exception p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_var { txt; _ } -> String.length txt > 0 && Char.equal txt.[0] '_'
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> drops_exception p
  | Ppat_or (a, b) -> drops_exception a || drops_exception b
  | _ -> false

let is_literal_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false" | "()"); _ }, None)
    ->
      true
  | _ -> false

let stdout_idents =
  [
    "print_string";
    "print_bytes";
    "print_int";
    "print_float";
    "print_char";
    "print_endline";
    "print_newline";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.print_flush";
    "Format.std_formatter";
  ]

let contains_ident name e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } when String.equal (strip_stdlib (lid_name txt)) name
      ->
        found := true
    | _ -> ());
    super.expr self e
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let apply_head e =
  match e.pexp_desc with Pexp_apply (f, _) -> ident_name f | _ -> ""

(* [Fun.protect ~finally:(... Mutex.unlock ...) ...], possibly at the
   head of a longer sequence. *)
let rec protected_unlock e =
  match e.pexp_desc with
  | Pexp_apply (f, args) when String.equal (ident_name f) "Fun.protect" ->
      List.exists
        (fun (lbl, a) ->
          match lbl with
          | Asttypes.Labelled "finally" -> contains_ident "Mutex.unlock" a
          | _ -> false)
        args
  | Pexp_sequence (e1, _) -> protected_unlock e1
  | _ -> false

let iterator ctx =
  let super = Ast_iterator.default_iterator in
  (* Locations (as "line:col") of fun-expressions in definition
     position — [let f x = ...] chains — which the no-alloc rule does
     not treat as per-call closure allocations. *)
  let defined_funs = Hashtbl.create 64 in
  (* Mutex.lock calls blessed by the canonical protect shape. *)
  let safe_locks = Hashtbl.create 16 in
  (* =/<> uses exempted because one operand is an immediate literal. *)
  let literal_cmps = Hashtbl.create 16 in
  (* Tuples that are really cons cells: [a :: b] carries its arguments
     as a tuple node, which must not double-report with the list. *)
  let cons_tuples = Hashtbl.create 16 in
  (* Top-level shadowing of =/<>/compare with monomorphic versions
     makes every use in the file type-checked, which is exactly the
     enforcement this rule wants. *)
  let waived_ops = Hashtbl.create 4 in
  let report_at loc rule msg =
    let line, col = position loc in
    ctx.report ~line ~col ~rule msg
  in
  let rec binding_name p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> binding_name p
    | _ -> None
  in
  let scan_shadows str =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match binding_name vb.pvb_pat with
                | Some (("=" | "<>" | "compare") as op) ->
                    Hashtbl.replace waived_ops op ()
                | _ -> ())
              vbs
        | _ -> ())
      str
  in
  let check_handler_case case =
    if Option.is_none case.pc_guard && drops_exception case.pc_lhs then
      report_at case.pc_lhs.ppat_loc "catch-all"
        "handler drops the exception; match specific exceptions or re-raise"
  in
  let check_match_case case =
    match case.pc_lhs.ppat_desc with
    | Ppat_exception p when Option.is_none case.pc_guard && drops_exception p ->
        report_at case.pc_lhs.ppat_loc "catch-all"
          "handler drops the exception; match specific exceptions or re-raise"
    | _ -> ()
  in
  let value_binding self vb =
    let rec mark e =
      Hashtbl.replace defined_funs (loc_key e.pexp_loc) ();
      match e.pexp_desc with
      | Pexp_fun (_, _, _, body) -> mark body
      | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> mark e
      | _ -> ()
    in
    mark vb.pvb_expr;
    super.value_binding self vb
  in
  let check_poly_compare e =
    if ctx.enabled "no-poly-compare" && poly_compare_scope ctx.relpath then begin
      (match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          match ident_name f with
          | "=" | "<>" when List.exists (fun (_, a) -> is_literal_operand a) args
            ->
              Hashtbl.replace literal_cmps (loc_key f.pexp_loc) ()
          | _ -> ())
      | _ -> ());
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match strip_stdlib (lid_name txt) with
          | ("=" | "<>") as op ->
              if
                (not (Hashtbl.mem waived_ops op))
                && not (Hashtbl.mem literal_cmps (loc_key e.pexp_loc))
              then
                report_at e.pexp_loc "no-poly-compare"
                  (Printf.sprintf
                     "polymorphic %s; use Int.equal/String.equal or shadow \
                      (%s) monomorphically"
                     op op)
          | "compare" ->
              if not (Hashtbl.mem waived_ops "compare") then
                report_at e.pexp_loc "no-poly-compare"
                  "polymorphic compare; use Int.compare or a dedicated \
                   comparator"
          | "Hashtbl.hash" ->
              report_at e.pexp_loc "no-poly-compare"
                "polymorphic Hashtbl.hash; hash an explicit key instead"
          | _ -> ())
      | _ -> ()
    end
  in
  let check_no_alloc e =
    let line, _ = position e.pexp_loc in
    if ctx.enabled "no-alloc" && ctx.hot line then
      match e.pexp_desc with
      | Pexp_tuple _ ->
          if not (Hashtbl.mem cons_tuples (loc_key e.pexp_loc)) then
            report_at e.pexp_loc "no-alloc" "tuple allocation in hot region"
      | Pexp_array (_ :: _) ->
          report_at e.pexp_loc "no-alloc" "array literal allocation in hot region"
      | Pexp_construct ({ txt = Longident.Lident "::"; _ }, arg) ->
          (match arg with
          | Some ({ pexp_desc = Pexp_tuple _; _ } as a) ->
              Hashtbl.replace cons_tuples (loc_key a.pexp_loc) ()
          | _ -> ());
          report_at e.pexp_loc "no-alloc" "list allocation in hot region"
      | Pexp_fun _ | Pexp_function _ ->
          if not (Hashtbl.mem defined_funs (loc_key e.pexp_loc)) then
            report_at e.pexp_loc "no-alloc"
              "closure allocation in hot region; hoist it or justify with an \
               allow comment"
      | Pexp_ident _ -> (
          let name = ident_name e in
          if String.equal name "@" || String.equal name "List.append" then
            report_at e.pexp_loc "no-alloc" "list append in hot region"
          else if starts_with ~prefix:"List." name then
            report_at e.pexp_loc "no-alloc"
              (Printf.sprintf "%s in hot region; iterate arrays instead" name)
          else if starts_with ~prefix:"Printf." name then
            report_at e.pexp_loc "no-alloc"
              (Printf.sprintf "%s in hot region" name))
      | _ -> ()
  in
  let check_no_stdout e =
    if ctx.enabled "no-stdout" && lib_scope ctx.relpath then
      match e.pexp_desc with
      | Pexp_ident _ ->
          let name = ident_name e in
          if List.exists (String.equal name) stdout_idents then
            report_at e.pexp_loc "no-stdout"
              (Printf.sprintf
                 "%s writes to stdout from lib/; route output through Obskit \
                  sinks or Runtime.Export"
                 name)
      | _ -> ()
  in
  let check_lock_safety e =
    if ctx.enabled "lock-safety" then begin
      (match e.pexp_desc with
      | Pexp_sequence (e1, e2)
        when String.equal (apply_head e1) "Mutex.lock" && protected_unlock e2
        ->
          Hashtbl.replace safe_locks (loc_key e1.pexp_loc) ()
      | _ -> ());
      match e.pexp_desc with
      | Pexp_apply (f, _)
        when String.equal (ident_name f) "Mutex.lock"
             && not (Hashtbl.mem safe_locks (loc_key e.pexp_loc)) ->
          report_at e.pexp_loc "lock-safety"
            "Mutex.lock without an exception-safe unlock; use Pool.with_lock \
             or follow it directly with Fun.protect ~finally:(fun () -> \
             Mutex.unlock ...)"
      | _ -> ()
    end
  in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_try (_, cases) when ctx.enabled "catch-all" ->
        List.iter check_handler_case cases
    | Pexp_match (_, cases) when ctx.enabled "catch-all" ->
        List.iter check_match_case cases
    | _ -> ());
    check_lock_safety e;
    check_poly_compare e;
    check_no_alloc e;
    check_no_stdout e;
    super.expr self e
  in
  let it = { super with expr; value_binding } in
  (it, scan_shadows)

let check_structure ctx str =
  let it, scan_shadows = iterator ctx in
  scan_shadows str;
  it.Ast_iterator.structure it str
