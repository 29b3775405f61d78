(* The two effect rule families, evaluated over {!Callgraph}:

   - [effect-pure]: a function annotated [(* effect: pure *)] must
     have an empty transitive write set, reach no nondeterminism, and
     call nothing unknown.
   - [determinism]: wall clocks, self-seeded RNG, polymorphic hashes
     and domain identity are banned outright in lib/core, lib/bstnet
     and lib/forest, whose outputs must be bit-identical across runs.

   Findings blame the frontier: a pure function reports its own
   direct writes and its calls into *unannotated* dirty callees, while
   a pure callee is skipped here and verified on its own — so one
   injected write produces exactly one finding, at the injection
   site.  Messages carry names, never positions, keeping baseline
   keys stable under unrelated edits. *)

let rule_pure = "effect-pure"
let rule_det = "determinism"

let rules = [ rule_pure; rule_det ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then false
    else String.equal (String.sub s i m) sub || go (i + 1)
  in
  go 0

let det_scope relpath =
  List.exists
    (fun d -> contains_sub relpath d)
    [ "lib/core/"; "lib/bstnet/"; "lib/forest/"; "lib/servekit/" ]

(* --- transitive summaries (least fixpoint) ------------------------- *)

type elem =
  | W of string * Summary.target  (* module of the write site, target *)
  | N of string * string  (* nondeterministic external, why *)
  | U of string  (* unknown callee *)

let elem_key = function
  | W (m, t) -> Printf.sprintf "0w|%s|%s" m (Summary.target_to_string t)
  | N (n, _) -> "1n|" ^ n
  | U n -> "2u|" ^ n

let elem_of_fact ~modname = function
  | Summary.Write tgt -> Some (W (modname, tgt))
  | Summary.Call (Summary.Ext_write (name, _)) ->
      Some (W (modname, Summary.Opaque name))
  | Summary.Call (Summary.Ext_nondet (n, why)) -> Some (N (n, why))
  | Summary.Call (Summary.Unknown n) -> Some (U n)
  | Summary.Call (Summary.Known _ | Summary.Ext_pure) -> None

(* Kleene iteration to the least fixpoint of
   [sum f = direct f ∪ ⋃ { sum g | f calls g }] over the set lattice;
   the tree has a few thousand functions and summaries stay small, so
   the quadratic worst case is irrelevant in practice. *)
let compute_sums (g : Callgraph.t) =
  let sums = Hashtbl.create 512 in
  List.iter (fun c -> Hashtbl.replace sums c (Hashtbl.create 8)) g.order;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        let info = Hashtbl.find g.funs c in
        let tbl = Hashtbl.find sums c in
        let add e =
          let k = elem_key e in
          if not (Hashtbl.mem tbl k) then begin
            Hashtbl.replace tbl k e;
            changed := true
          end
        in
        List.iter
          (fun (fact, _) ->
            match fact with
            | Summary.Call (Summary.Known callee) -> (
                match Hashtbl.find_opt sums callee with
                | Some ctbl ->
                    Hashtbl.iter
                      (fun k e ->
                        if not (Hashtbl.mem tbl k) then begin
                          Hashtbl.replace tbl k e;
                          changed := true
                        end)
                      ctbl
                | None -> ())
            | fact -> (
                match elem_of_fact ~modname:info.Summary.modname fact with
                | Some e -> add e
                | None -> ()))
          info.Summary.facts)
      g.order
  done;
  sums

(* First element of a summary — every element breaks purity — writes
   before nondeterminism before unknowns, lexicographic within a class:
   deterministic, so messages are stable across runs. *)
let violation sum =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) sum []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.find_map (fun (_, e) -> Some e)

(* --- witness chains ------------------------------------------------ *)

let elem_desc = function
  | W (_, t) -> "writes " ^ Summary.target_to_string t
  | N (n, why) -> Printf.sprintf "reaches nondeterministic %s (%s)" n why
  | U n -> Printf.sprintf "calls %s, whose effects are unknown" n

(* The first direct impure fact of [canon], described. *)
let direct_violation (g : Callgraph.t) canon =
  let info = Hashtbl.find g.funs canon in
  List.find_map
    (fun (fact, _) ->
      Option.map elem_desc (elem_of_fact ~modname:info.Summary.modname fact))
    info.Summary.facts

(* Breadth-first over Known call edges from [start] to the nearest
   function with a direct impure fact: the innermost culprit, plus
   the chain that reaches it.  Edge order follows source order, so the
   witness is deterministic. *)
let witness (g : Callgraph.t) start =
  let seen = Hashtbl.create 32 in
  let q = Queue.create () in
  Queue.add (start, []) q;
  Hashtbl.replace seen start ();
  let rec bfs () =
    if Queue.is_empty q then None
    else
      let canon, rev_path = Queue.pop q in
      match direct_violation g canon with
      | Some desc -> Some (desc, List.rev (canon :: rev_path))
      | None ->
          let info = Hashtbl.find g.funs canon in
          List.iter
            (fun (fact, _) ->
              match fact with
              | Summary.Call (Summary.Known callee)
                when Hashtbl.mem g.funs callee
                     && not (Hashtbl.mem seen callee) ->
                  Hashtbl.replace seen callee ();
                  Queue.add (callee, canon :: rev_path) q
              | _ -> ())
            info.Summary.facts;
          bfs ()
  in
  bfs ()

let via_suffix path =
  match path with
  | [] | [ _ ] -> ""
  | _ :: chain -> Printf.sprintf " (via %s)" (String.concat " -> " chain)

(* --- rule evaluation ----------------------------------------------- *)

let finding ~(f : Summary.info) ~rule ~(site : Summary.site) msg =
  Lintkit.Finding.v ~file:f.file ~line:site.Summary.line ~col:site.Summary.col
    ~rule msg

(* A pure callee satisfies the caller's requirement by contract: it
   gets verified on its own, so the caller does not re-report it —
   this is what makes one injected write one finding. *)
let check_required (g : Callgraph.t) sums (f : Summary.info) acc =
  match f.requirement with
  | None -> acc
  | Some Summary.Pure ->
      let head = Printf.sprintf "%s must stay pure (* effect: pure *)" f.name in
      List.fold_left
        (fun acc (fact, site) ->
          let report msg = finding ~f ~rule:rule_pure ~site msg :: acc in
          match fact with
          | Summary.Write tgt ->
              report
                (Printf.sprintf "%s but writes %s" head
                   (Summary.target_to_string tgt))
          | Summary.Call (Summary.Known callee) -> (
              let cinfo = Hashtbl.find g.funs callee in
              if Option.is_some cinfo.Summary.requirement then acc
              else
                match violation (Hashtbl.find sums callee) with
                | None -> acc
                | Some e ->
                    let desc, path =
                      match witness g callee with
                      | Some (desc, path) -> (desc, path)
                      | None -> (elem_desc e, [])
                    in
                    report
                      (Printf.sprintf "%s but calls %s, which %s%s" head
                         callee desc (via_suffix path)))
          | Summary.Call (Summary.Ext_write (name, tgt)) ->
              report
                (Printf.sprintf "%s but calls %s, which writes %s" head name
                   (Summary.target_to_string tgt))
          | Summary.Call (Summary.Ext_nondet (name, why)) ->
              report
                (Printf.sprintf "%s but reaches nondeterministic %s (%s)" head
                   name why)
          | Summary.Call (Summary.Unknown name) ->
              report
                (Printf.sprintf
                   "%s but calls %s, whose effects are unknown to effectkit \
                    (out-of-scope module); restructure or suppress with a \
                    lint allow"
                   head name)
          | Summary.Call Summary.Ext_pure -> acc)
        acc f.facts

let check_determinism (f : Summary.info) acc =
  if not (det_scope f.file) then acc
  else
    List.fold_left
      (fun acc (fact, site) ->
        match fact with
        | Summary.Call (Summary.Ext_nondet (name, why)) ->
            finding ~f ~rule:rule_det ~site
              (Printf.sprintf
                 "%s is nondeterministic (%s); lib/core, lib/bstnet, \
                  lib/forest and lib/servekit must stay bit-reproducible"
                 name why)
            :: acc
        | _ -> acc)
      acc f.facts

(* --- the engine pass ----------------------------------------------- *)

let pass ~enabled files =
  let relevant = List.filter (fun (p, _) -> Callgraph.lib_file p) files in
  if
    List.is_empty relevant
    || not (List.exists enabled rules)
  then []
  else begin
    let g = Callgraph.build relevant in
    let sums = compute_sums g in
    let acc = g.errors in
    let acc =
      List.fold_left
        (fun acc c ->
          let f = Hashtbl.find g.funs c in
          let acc =
            if enabled rule_pure then check_required g sums f acc
            else acc
          in
          if enabled rule_det then check_determinism f acc else acc)
        acc g.order
    in
    let keep (fd : Lintkit.Finding.t) =
      enabled fd.Lintkit.Finding.rule
      || String.equal fd.Lintkit.Finding.rule Lintkit.Engine.meta_directive
    in
    List.sort Lintkit.Finding.compare (List.filter keep acc)
  end
