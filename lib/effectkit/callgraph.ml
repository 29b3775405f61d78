(* Builds the module-qualified call graph over the lib/ tree: one
   {!Summary.info} per top-level (or nested-module) value binding,
   with its direct write facts and its calls resolved to canonical
   in-tree names, externals, or [Unknown].  Root and test files
   (bin/, bench/, examples/, perfbench/, test/) define nothing; each
   contributes the set of lib values it names, and so do a lib file's
   top-level effects.

   Canonical names follow dune's wrapping: [lib/<dir>/<file>.ml]
   defines module [<Lib>.<File>] where [<Lib>] is the library name
   ([core] → [Cbnet], every other directory capitalizes to its own
   name), so [lib/core/potential.ml]'s [rank] is
   [Cbnet.Potential.rank].

   Resolution is two-phase: first every file is parsed and its
   definitions, per-file module aliases ([module T = Bstnet.Topology])
   and raw facts (each name with the opens around it) are collected;
   then each raw call is resolved against the full definition table —
   mutual recursion and cross-file cycles need the whole map before
   the first lookup. *)

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

type role = Lib | Root of string | Test | Other

let root_dirs = [ "bin"; "bench"; "examples"; "perfbench" ]

(* A file's role by its first path component: bin/, bench/,
   examples/ and perfbench/ are roots, test/ is a test root. *)
let role relpath =
  if lib_file relpath then Lib
  else
    match String.split_on_char '/' relpath with
    | d :: _ :: _ when List.exists (String.equal d) root_dirs -> Root d
    | "test" :: _ :: _ -> Test
    | _ -> Other

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

(* A name as written, with the module paths opened around it,
   innermost first ([open M], [let open M in], [M.( ... )]). *)
type scoped = { path : string; opens : string list }

type raw =
  | Rwrite of Summary.target
  | Rcall of scoped
  | Rinclude of scoped  (* [include M]: a use of all of [M] *)

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
  roots : (string * string list) list;  (* file -> values it always reaches *)
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

let opened od =
  match od.popen_expr.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (lid_str txt)
  | _ -> None

(* Walk one expression, recording writes (with named receivers where
   the AST shows one) and raw identifier occurrences, each with the
   opens in scope.  Occurrences, not just application heads: a
   function passed as a value ([Simkit.Pqueue.create
   M.priority_compare]) still contributes its effects to the caller.
   Locals and parameters surface as bare names that resolve to nothing
   and are dropped — sound here because a local [let] body's facts are
   already folded into the enclosing binding; the known hole is a
   higher-order call through a parameter, which the docs call out. *)
let collect_facts ~opens add expr0 =
  let opens = ref opens in
  let call name loc = add (Rcall { path = name; opens = !opens }) loc in
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
        if not (String.equal n "") then call n e.pexp_loc
    | Pexp_open (od, body) -> (
        match opened od with
        | Some m ->
            let saved = !opens in
            opens := m :: saved;
            self.expr self body;
            opens := saved
        | None -> super.expr self e)
    | Pexp_letop { let_; ands; _ } ->
        List.iter
          (fun op -> call op.pbop_op.txt op.pbop_loc)
          (let_ :: ands);
        super.expr self e
    | _ -> super.expr self e
  in
  let it = { super with expr } in
  it.expr it expr0

type file_state = {
  relpath : string;
  modroot : string;  (* "Cbnet.Potential"; "" outside lib/ *)
  curlib : string;  (* "Cbnet"; "" outside lib/ *)
  whole : bool;  (* a root file: every binding is a root *)
  aliases : (string, string) Hashtbl.t;  (* T -> "Bstnet.Topology" *)
  by_line : (int, string) Hashtbl.t;  (* def line -> canonical name *)
  mutable rraw : (string * raw) list;
      (* (enclosing module, fact) of the file's roots, reversed *)
}

let add_root st ~dmod r = st.rraw <- (dmod, r) :: st.rraw

(* A named lib binding becomes a definition; anything else — an
   unnamed [let () =], a whole root file — feeds the file's roots. *)
let collect_binding st defs order vb ~modpath ~opens =
  let dmod = String.concat "." (st.modroot :: modpath) in
  match binding_name vb.pvb_pat with
  | Some fname when not st.whole ->
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
      collect_facts ~opens
        (fun r loc -> d.draw <- (r, site_of loc) :: d.draw)
        vb.pvb_expr;
      if not (Hashtbl.mem defs canon) then order := canon :: !order;
      Hashtbl.replace defs canon d;
      if not (Hashtbl.mem st.by_line dline) then
        Hashtbl.replace st.by_line dline canon
  | _ -> collect_facts ~opens (fun r _ -> add_root st ~dmod r) vb.pvb_expr

let rec strip_module_expr me =
  match me.pmod_desc with
  | Pmod_constraint (me, _) -> strip_module_expr me
  | _ -> me

(* Top-level [open M] scopes over the items after it. *)
let rec walk_items st defs mods order ~modpath ~opens items =
  let dmod = String.concat "." (st.modroot :: modpath) in
  ignore
    (List.fold_left
       (fun opens item ->
         match item.pstr_desc with
         | Pstr_open od -> (
             match opened od with Some m -> m :: opens | None -> opens)
         | Pstr_value (_, vbs) ->
             List.iter
               (fun vb -> collect_binding st defs order vb ~modpath ~opens)
               vbs;
             opens
         | Pstr_eval (e, _) ->
             collect_facts ~opens (fun r _ -> add_root st ~dmod r) e;
             opens
         | Pstr_include { pincl_mod; _ } ->
             (match (strip_module_expr pincl_mod).pmod_desc with
             | Pmod_ident { txt; _ } ->
                 add_root st ~dmod (Rinclude { path = lid_str txt; opens })
             | _ -> ());
             opens
         | Pstr_module mb ->
             walk_module_binding st defs mods order ~modpath ~opens mb;
             opens
         | Pstr_recmodule mbs ->
             List.iter
               (walk_module_binding st defs mods order ~modpath ~opens)
               mbs;
             opens
         | _ -> opens)
       opens items)

and walk_module_binding st defs mods order ~modpath ~opens mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> (
      match (strip_module_expr mb.pmb_expr).pmod_desc with
      | Pmod_ident { txt; _ } ->
          if List.is_empty modpath then
            Hashtbl.replace st.aliases name (lid_str txt)
      | Pmod_structure items ->
          let modpath = modpath @ [ name ] in
          if not st.whole then
            Hashtbl.replace mods
              (String.concat "." (st.modroot :: modpath))
              ();
          walk_items st defs mods order ~modpath ~opens items
      | _ -> ())

(* --- phase B: resolution ------------------------------------------- *)

let expand_alias st name =
  match String.index_opt name '.' with
  | None -> Option.value (Hashtbl.find_opt st.aliases name) ~default:name
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

(* An opened module path, canonical when it names an in-tree module:
   relative to the opens outside it (resolved, innermost first), the
   enclosing modules, then the current library. *)
let resolve_module ~is_mod st ~dmod ~opens path =
  let path = expand_alias st path in
  let candidates =
    List.map (fun p -> p ^ "." ^ path) (opens @ module_prefixes dmod)
    @ [ st.curlib ^ "." ^ path; path ]
  in
  Option.value (List.find_opt is_mod candidates) ~default:path

let resolve_opens ~is_mod st ~dmod opens =
  List.fold_right
    (fun o outer -> resolve_module ~is_mod st ~dmod ~opens:outer o :: outer)
    opens []

(* [mem] looks a canonical name up in the full definition table;
   [is_lib] recognises library wrapper names ("Bstnet", "Simkit").  A
   name in the scope of [open M] means [M.name] when that exists. *)
let resolve ~mem ~is_lib ~is_mod st ~dmod { path; opens } =
  let name = expand_alias st path in
  let opened =
    List.find_opt
      (fun o -> mem (o ^ "." ^ name))
      (resolve_opens ~is_mod st ~dmod opens)
  in
  match opened with
  | Some o -> Some (Summary.Known (o ^ "." ^ name))
  | None ->
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

(* Attach the effect annotations of a lib file: a comment governs the
   definition starting on its own last line (trailing placement) or
   the line right after it. *)
let attach_annotations st defs src errors =
  List.iter
    (fun (c : Lintkit.Source.comment) ->
      let error msg =
        errors :=
          Lintkit.Finding.v ~file:st.relpath ~line:c.start_line ~col:1
            ~rule:Lintkit.Engine.meta_directive msg
          :: !errors
      in
      match annotation_of_text c.text with
      | None -> ()
      | Some (Error msg) -> error msg
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
              error
                "effect annotation attaches to no definition (it must sit \
                 on, or directly above, a let binding)"))
    (Lintkit.Source.comments src)

let build files =
  let defs = Hashtbl.create 512 in
  let mods = Hashtbl.create 64 in
  let libs = Hashtbl.create 16 in
  let order = ref [] in
  let errors = ref [] in
  let states = ref [] in
  (* Phase A: parse, collect defs + aliases + raw facts. *)
  List.iter
    (fun (relpath, src) ->
      let scope =
        match (lib_module relpath, role relpath) with
        | Some (lib, filemod), _ -> Some (lib, lib ^ "." ^ filemod)
        | None, (Root _ | Test) when Filename.check_suffix relpath ".ml" ->
            Some ("", "")
        | _ -> None
      in
      match scope with
      | None -> ()
      | Some (lib, modroot) -> (
          let st =
            {
              relpath;
              modroot;
              curlib = lib;
              whole = String.equal lib "";
              aliases = Hashtbl.create 8;
              by_line = Hashtbl.create 64;
              rraw = [];
            }
          in
          let lexbuf = Lexing.from_string (Lintkit.Source.code src) in
          Location.init lexbuf relpath;
          match Parse.implementation lexbuf with
          | items ->
              if not st.whole then begin
                Hashtbl.replace libs lib ();
                Hashtbl.replace mods modroot ()
              end;
              walk_items st defs mods order ~modpath:[] ~opens:[] items;
              if not st.whole then attach_annotations st defs src errors;
              states := (relpath, st) :: !states
          | exception (Syntaxerr.Error _ | Lexer.Error _) ->
              (* The per-file lint already reports parse errors; the
                 call graph just skips the file, and calls into it
                 resolve as Unknown. *)
              ()))
    files;
  let states = List.rev !states in
  (* Phase B: resolve raw facts against the full definition table. *)
  let order = List.rev !order in
  let mem = Hashtbl.mem defs in
  let is_lib = Hashtbl.mem libs in
  let is_mod m = is_lib m || Hashtbl.mem mods m in
  let funs = Hashtbl.create 512 in
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
                match resolve ~mem ~is_lib ~is_mod st ~dmod:d.dmod n with
                | Some c -> Some (Summary.Call c, site)
                | None -> None)
            | Rinclude _ -> None)
          d.draw
        |> List.filter_map Fun.id
      in
      Hashtbl.replace funs canon
        {
          Summary.name = canon;
          modname = d.dmod;
          file = d.dfile;
          def_line = d.dline;
          requirement = d.dreq;
          facts;
        })
    order;
  (* An include reaches every value of the included module. *)
  let members m =
    let prefix = m ^ "." in
    List.filter
      (fun c -> starts_with ~prefix ((Hashtbl.find defs c).dmod ^ "."))
      order
  in
  let roots =
    List.map
      (fun (relpath, st) ->
        let reached =
          List.rev st.rraw
          |> List.concat_map (fun (dmod, r) ->
                 match r with
                 | Rwrite _ -> []
                 | Rcall n -> (
                     match resolve ~mem ~is_lib ~is_mod st ~dmod n with
                     | Some (Summary.Known c) -> [ c ]
                     | _ -> [])
                 | Rinclude { path; opens } ->
                     let opens = resolve_opens ~is_mod st ~dmod opens in
                     members (resolve_module ~is_mod st ~dmod ~opens path))
        in
        (relpath, reached))
      states
  in
  { funs; order; roots; errors = List.rev !errors }
