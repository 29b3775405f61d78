(* The unused-export rule over {!Callgraph}.  Two closures over the
   call edges: [prod] from the root files (and lib top-level effects),
   [all] from those plus test/.  An exported value is fine when some
   [prod]-live caller outside its own module, or a root file, names
   it; otherwise it is reported at its .mli line as one of

   - unreached: no closure holds it — delete it;
   - own-module: [prod]-live, but only through its own module — drop
     it from the .mli;
   - test-only: outside its module, only test/ reaches it — delete it
     with its tests, or keep it under a lint allow naming the reason.

   Values the graph does not define (functor or include results) are
   skipped.  Messages carry names, never positions. *)

open Parsetree

let rule = "unused-export"

let closure (g : Callgraph.t) seeds =
  let live = Hashtbl.create 1024 in
  let rec visit c =
    match Hashtbl.find_opt g.funs c with
    | Some info when not (Hashtbl.mem live c) ->
        Hashtbl.replace live c ();
        List.iter
          (function
            | Summary.Call (Summary.Known c'), _ -> visit c' | _ -> ())
          info.Summary.facts
    | _ -> ()
  in
  List.iter (fun (_, names) -> List.iter visit names) seeds;
  live

(* Values named by a [live] definition or a seed file outside the
   value's own file. *)
let used_outside (g : Callgraph.t) live seeds =
  let used = Hashtbl.create 1024 in
  let mark ~from c =
    match Hashtbl.find_opt g.funs c with
    | Some info when not (String.equal info.Summary.file from) ->
        Hashtbl.replace used c ()
    | _ -> ()
  in
  List.iter (fun (file, names) -> List.iter (mark ~from:file) names) seeds;
  Hashtbl.iter
    (fun caller () ->
      let info = Hashtbl.find g.funs caller in
      List.iter
        (function
          | Summary.Call (Summary.Known c), _ -> mark ~from:info.Summary.file c
          | _ -> ())
        info.Summary.facts)
    live;
  used

(* [(canonical name, location)] of every [val] in one .mli, nested
   [module M : sig ... end] included. *)
let exports ~modname src =
  let lexbuf = Lexing.from_string (Lintkit.Source.code src) in
  Location.init lexbuf (Lintkit.Source.path src);
  let rec items prefix acc sg =
    List.fold_left
      (fun acc item ->
        match item.psig_desc with
        | Psig_value vd -> (prefix ^ "." ^ vd.pval_name.txt, vd.pval_loc) :: acc
        | Psig_module
            {
              pmd_name = { txt = Some m; _ };
              pmd_type = { pmty_desc = Pmty_signature sg; _ };
              _;
            } ->
            items (prefix ^ "." ^ m) acc sg
        | _ -> acc)
      acc sg
  in
  match Parse.interface lexbuf with
  | sg -> List.rev (items modname [] sg)
  | exception (Syntaxerr.Error _ | Lexer.Error _) -> []

let message ~prod ~all ~used_all canon =
  if Hashtbl.mem prod canon then
    if Hashtbl.mem used_all canon then
      Printf.sprintf
        "%s is used outside its module only from test/; unexport it and \
         its tests, or keep it under (* lint: allow unused-export -- \
         <reason> *)"
        canon
    else
      Printf.sprintf
        "%s is used only inside its own module; drop it from the .mli" canon
  else if Hashtbl.mem all canon then
    Printf.sprintf
      "%s is reached only from test/; delete it with its tests, or keep it \
       under (* lint: allow unused-export -- <reason> *)"
      canon
  else
    Printf.sprintf
      "%s is unreached from bin/, bench/, examples/ and perfbench/; delete it"
      canon

let has_roots files =
  List.for_all
    (fun dir ->
      List.exists
        (fun (p, _) ->
          match Callgraph.role p with
          | Callgraph.Root d -> String.equal d dir
          | _ -> false)
        files)
    Callgraph.root_dirs

let pass ~enabled files =
  if not (enabled rule && has_roots files) then []
  else begin
    let g = Callgraph.build files in
    let prod_seeds =
      List.filter
        (fun (file, _) ->
          match Callgraph.role file with Callgraph.Test -> false | _ -> true)
        g.roots
    in
    let prod = closure g prod_seeds in
    let all = closure g g.roots in
    let used_prod = used_outside g prod prod_seeds in
    let used_all = used_outside g all g.roots in
    List.concat_map
      (fun (relpath, src) ->
        let interface =
          if Filename.check_suffix relpath ".mli" then
            Callgraph.lib_module (Filename.chop_suffix relpath "i")
          else None
        in
        match interface with
        | Some (lib, filemod) ->
            exports ~modname:(lib ^ "." ^ filemod) src
            |> List.filter_map (fun (canon, (loc : Location.t)) ->
                   if (not (Hashtbl.mem g.funs canon))
                      || Hashtbl.mem used_prod canon
                   then None
                   else
                     let p = loc.loc_start in
                     Some
                       (Lintkit.Finding.v ~file:relpath ~line:p.pos_lnum
                          ~col:(p.pos_cnum - p.pos_bol + 1)
                          ~rule
                          (message ~prod ~all ~used_all canon)))
        | None -> [])
      files
    |> List.sort Lintkit.Finding.compare
  end
