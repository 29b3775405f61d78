(* Builds the module-qualified call graph over the lib/ tree: one
   {!Summary.info} per top-level (or nested-module) value binding,
   with its direct write facts and its calls resolved to canonical
   in-tree names, externals, or [Unknown].

   Canonical names follow dune's wrapping: [lib/<dir>/<file>.ml]
   defines module [<Lib>.<File>] where [<Lib>] is the library name
   ([core] → [Cbnet], every other directory capitalizes to its own
   name), so [lib/core/potential.ml]'s [rank] is
   [Cbnet.Potential.rank].

   Resolution is two-phase: first every file is parsed and its
   definitions, per-file module aliases ([module T = Bstnet.Topology])
   and raw facts are collected; then each raw call is resolved against
   the full definition table — mutual recursion and cross-file cycles
   need the whole map before the first lookup. *)

open Parsetree

(* --- names --------------------------------------------------------- *)

let starts_with ~prefix s =
  let plen = String.length prefix in
  String.length s >= plen && String.equal (String.sub s 0 plen) prefix

let strip_stdlib name =
  let p = "Stdlib." in
  if starts_with ~prefix:p name then
    String.sub name (String.length p) (String.length name - String.length p)
  else name

let rec flatten_lid acc = function
  | Longident.Lident s -> Some (s :: acc)
  | Longident.Ldot (l, s) -> flatten_lid (s :: acc) l
  | Longident.Lapply _ -> None

let lid_str lid =
  match flatten_lid [] lid with
  | Some parts -> String.concat "." parts
  | None -> ""

let lid_last lid =
  match flatten_lid [] lid with
  | Some parts -> List.nth_opt (List.rev parts) 0
  | None -> None

let lib_of_dir = function
  | "core" -> "Cbnet"
  | d -> String.capitalize_ascii d

(* [lib/<dir>/<file>.ml] → (library wrapper, file module).  Anything
   else — bin/, test/, .mli — is outside the analysis. *)
let lib_module relpath =
  if not (Filename.check_suffix relpath ".ml") then None
  else
    match List.rev (String.split_on_char '/' relpath) with
    | base :: dir :: "lib" :: _ ->
        let base = Filename.chop_suffix base ".ml" in
        Some (lib_of_dir dir, String.capitalize_ascii base)
    | _ -> None

let lib_file relpath = Option.is_some (lib_module relpath)

(* --- effect annotations -------------------------------------------- *)

let is_separator tok =
  String.equal tok "--" || String.equal tok "\xe2\x80\x94" (* em dash *)

(* [Some (Ok req)] for a well-formed [effect:] annotation, [Some
   (Error m)] for a malformed one, [None] for an ordinary comment.
   Syntax mirrors the lint directives: [(* effect: pure *)], with any
   justification after [--]. *)
let annotation_of_text text =
  let text = String.trim text in
  let prefix = "effect:" in
  if not (starts_with ~prefix text) then None
  else
    let rest =
      String.sub text (String.length prefix)
        (String.length text - String.length prefix)
    in
    let tokens =
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char '\t')
      |> List.concat_map (String.split_on_char '\n')
      |> List.filter (fun s -> not (String.equal s ""))
    in
    match tokens with
    | "pure" :: rest when List.is_empty rest || is_separator (List.hd rest) ->
        Some (Ok Summary.Pure)
    | tok :: _ ->
        Some
          (Error
             (Printf.sprintf
                "unknown effect annotation %S (expected pure, with any \
                 justification after --)"
                tok))
    | [] -> Some (Error "empty effect annotation (expected pure)")

(* --- phase A: per-file collection ---------------------------------- *)

type raw = Rwrite of Summary.target | Rcall of string

type def = {
  canon : string;
  dmod : string;
  dfile : string;
  dline : int;
  mutable draw : (raw * Summary.site) list;  (* reversed source order *)
  mutable dreq : Summary.requirement option;
}

type t = {
  funs : (string, Summary.info) Hashtbl.t;
  order : string list;  (* canonical names, deterministic input order *)
  mods : (string, string) Hashtbl.t;  (* canonical module -> file *)
  libs : (string, unit) Hashtbl.t;  (* library wrapper names present *)
  errors : Lintkit.Finding.t list;  (* malformed/unattached annotations *)
}

let site_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    Summary.line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol + 1;
  }

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

(* Receivers we can name: a bare or dotted identifier, or a record
   field projection ([t.weight]). *)
let receiver_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> lid_last txt
  | Pexp_field (_, { txt; _ }) -> lid_last txt
  | _ -> None

let arr_set_heads =
  [ "Array.set"; "Array.unsafe_set"; "Array.fill"; "Bytes.set";
    "Bytes.unsafe_set"; "Bytes.fill" ]

let ref_write_heads = [ ":="; "incr"; "decr" ]

let mem_str xs s = List.exists (String.equal s) xs

(* Walk one binding's expression, recording writes (with named
   receivers where the AST shows one) and raw identifier occurrences.
   Occurrences, not just application heads: a function passed as a
   value ([Simkit.Pqueue.create M.priority_compare]) still contributes
   its effects to the caller.  Locals and parameters surface as bare
   names that resolve to nothing and are dropped — sound here because
   a local [let] body's facts are already folded into the enclosing
   binding; the known hole is a higher-order call through a parameter,
   which the docs call out. *)
let collect_facts add expr0 =
  let super = Ast_iterator.default_iterator in
  let expr (self : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_setfield (recv, { txt; _ }, v) ->
        (match lid_last txt with
        | Some f -> add (Rwrite (Summary.Field f)) e.pexp_loc
        | None -> add (Rwrite (Summary.Opaque "record field")) e.pexp_loc);
        self.expr self recv;
        self.expr self v
    | Pexp_apply (f, args) -> (
        let head =
          match f.pexp_desc with
          | Pexp_ident { txt; _ } -> strip_stdlib (lid_str txt)
          | _ -> ""
        in
        let receiver_target fallback =
          match args with
          | (_, r) :: _ -> (
              match receiver_name r with
              | Some n -> fallback n
              | None -> Summary.Opaque head)
          | [] -> Summary.Opaque head
        in
        if mem_str arr_set_heads head then begin
          add (Rwrite (receiver_target (fun n -> Summary.Arr n))) e.pexp_loc;
          List.iter (fun (_, a) -> self.expr self a) args
        end
        else if mem_str ref_write_heads head then begin
          add (Rwrite (receiver_target (fun n -> Summary.Ref n))) e.pexp_loc;
          List.iter (fun (_, a) -> self.expr self a) args
        end
        else super.expr self e)
    | Pexp_ident { txt; _ } ->
        let n = strip_stdlib (lid_str txt) in
        if not (String.equal n "") then add (Rcall n) e.pexp_loc
    | _ -> super.expr self e
  in
  let it = { super with expr } in
  it.expr it expr0

type file_state = {
  relpath : string;
  modroot : string;  (* "Cbnet.Potential" *)
  curlib : string;  (* "Cbnet" *)
  aliases : (string, string) Hashtbl.t;  (* T -> "Bstnet.Topology" *)
  by_line : (int, string) Hashtbl.t;  (* def line -> canonical name *)
}

let collect_binding st defs order vb ~modpath =
  match binding_name vb.pvb_pat with
  | None -> ()
  | Some fname ->
      let dmod = String.concat "." (st.modroot :: modpath) in
      let canon = dmod ^ "." ^ fname in
      let dline = (site_of vb.pvb_loc).Summary.line in
      let d =
        {
          canon;
          dmod;
          dfile = st.relpath;
          dline;
          draw = [];
          dreq = None;
        }
      in
      collect_facts
        (fun r loc -> d.draw <- (r, site_of loc) :: d.draw)
        vb.pvb_expr;
      if not (Hashtbl.mem defs canon) then order := canon :: !order;
      Hashtbl.replace defs canon d;
      if not (Hashtbl.mem st.by_line dline) then
        Hashtbl.replace st.by_line dline canon

let rec strip_module_expr me =
  match me.pmod_desc with
  | Pmod_constraint (me, _) -> strip_module_expr me
  | _ -> me

let rec walk_items st defs order ~modpath items =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter (fun vb -> collect_binding st defs order vb ~modpath) vbs
      | Pstr_module mb -> walk_module_binding st defs order ~modpath mb
      | Pstr_recmodule mbs ->
          List.iter (walk_module_binding st defs order ~modpath) mbs
      | _ -> ())
    items

and walk_module_binding st defs order ~modpath mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> (
      match (strip_module_expr mb.pmb_expr).pmod_desc with
      | Pmod_ident { txt; _ } ->
          if List.is_empty modpath then
            Hashtbl.replace st.aliases name (lid_str txt)
      | Pmod_structure items ->
          walk_items st defs order ~modpath:(modpath @ [ name ]) items
      | _ -> ())

(* --- phase B: resolution ------------------------------------------- *)

let expand_alias st name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
      let s0 = String.sub name 0 i in
      match Hashtbl.find_opt st.aliases s0 with
      | Some exp -> exp ^ String.sub name i (String.length name - i)
      | None -> name)

(* Enclosing-module prefixes of [dmod], innermost first, down to the
   <Lib>.<File> root: bare names resolve against each in turn. *)
let module_prefixes dmod =
  let rec up acc m =
    match String.rindex_opt m '.' with
    | None -> List.rev acc
    | Some i ->
        let parent = String.sub m 0 i in
        if String.contains parent '.' then up (parent :: acc) parent
        else List.rev acc
  in
  dmod :: up [] dmod

(* [mem] looks a canonical name up in the full definition table;
   [is_lib] recognises library wrapper names ("Bstnet", "Simkit"). *)
let resolve ~mem ~is_lib st ~dmod name =
  let name = expand_alias st name in
  if not (String.contains name '.') then
    let candidate =
      List.find_opt (fun p -> mem (p ^ "." ^ name)) (module_prefixes dmod)
    in
    match candidate with
    | Some p -> Some (Summary.Known (p ^ "." ^ name))
    | None -> Extern.classify name
  else
    let root = String.sub name 0 (String.index name '.') in
    if is_lib root then
      if mem name then Some (Summary.Known name)
      else Some (Summary.Unknown name)
    else
      let in_tree =
        List.find_opt mem [ st.curlib ^ "." ^ name; dmod ^ "." ^ name ]
      in
      match in_tree with
      | Some c -> Some (Summary.Known c)
      | None -> Extern.classify name

(* --- build --------------------------------------------------------- *)

let build files =
  let g =
    {
      funs = Hashtbl.create 512;
      order = [];
      mods = Hashtbl.create 64;
      libs = Hashtbl.create 16;
      errors = [];
    }
  in
  let defs = Hashtbl.create 512 in
  let order = ref [] in
  let errors = ref [] in
  let states = ref [] in
  (* Phase A: parse, collect defs + aliases + raw facts. *)
  List.iter
    (fun (relpath, src) ->
      match lib_module relpath with
      | None -> ()
      | Some (lib, filemod) -> (
          let modroot = lib ^ "." ^ filemod in
          let st =
            {
              relpath;
              modroot;
              curlib = lib;
              aliases = Hashtbl.create 8;
              by_line = Hashtbl.create 64;
            }
          in
          let lexbuf = Lexing.from_string (Lintkit.Source.code src) in
          Location.init lexbuf relpath;
          match Parse.implementation lexbuf with
          | items ->
              Hashtbl.replace g.libs lib ();
              Hashtbl.replace g.mods modroot relpath;
              walk_items st defs order ~modpath:[] items;
              (* Attach the effect annotations: a comment governs the
                 definition starting on its own last line (trailing
                 placement) or the line right after it. *)
              List.iter
                (fun (c : Lintkit.Source.comment) ->
                  match annotation_of_text c.text with
                  | None -> ()
                  | Some (Error msg) ->
                      errors :=
                        Lintkit.Finding.v ~file:relpath ~line:c.start_line
                          ~col:1 ~rule:Lintkit.Engine.meta_directive msg
                        :: !errors
                  | Some (Ok req) -> (
                      let target =
                        match Hashtbl.find_opt st.by_line c.end_line with
                        | Some canon -> Some canon
                        | None -> Hashtbl.find_opt st.by_line (c.end_line + 1)
                      in
                      match target with
                      | Some canon ->
                          let d = Hashtbl.find defs canon in
                          d.dreq <- Some req
                      | None ->
                          errors :=
                            Lintkit.Finding.v ~file:relpath ~line:c.start_line
                              ~col:1 ~rule:Lintkit.Engine.meta_directive
                              "effect annotation attaches to no definition \
                               (it must sit on, or directly above, a let \
                               binding)"
                            :: !errors))
                (Lintkit.Source.comments src);
              states := (relpath, st) :: !states
          | exception (Syntaxerr.Error _ | Lexer.Error _) ->
              (* The per-file lint already reports parse errors; the
                 call graph just skips the file, and calls into it
                 resolve as Unknown. *)
              ()))
    files;
  let states = !states in
  (* Phase B: resolve raw facts against the full definition table. *)
  let order = List.rev !order in
  let mem = Hashtbl.mem defs in
  let is_lib = Hashtbl.mem g.libs in
  List.iter
    (fun canon ->
      let d = Hashtbl.find defs canon in
      let st = List.assoc d.dfile states in
      let facts =
        List.rev_map
          (fun (r, site) ->
            match r with
            | Rwrite tgt -> Some (Summary.Write tgt, site)
            | Rcall n -> (
                match resolve ~mem ~is_lib st ~dmod:d.dmod n with
                | Some c -> Some (Summary.Call c, site)
                | None -> None))
          d.draw
        |> List.filter_map Fun.id
      in
      Hashtbl.replace g.funs canon
        {
          Summary.name = canon;
          modname = d.dmod;
          file = d.dfile;
          def_line = d.dline;
          requirement = d.dreq;
          facts;
        })
    order;
  { g with order; errors = List.rev !errors }
