(* The effectkit passes.  Effect analysis: per-rule violating and
   clean fixtures, the least fixpoint over mutual recursion,
   unknown-callee conservatism, annotation errors, suppression through
   the engine, and the seeded-mutation catch over the real lib/ tree.
   unused-export: each finding kind, each way a name can be used
   (alias, opens, top-level effects, include, transitive chains), the
   no-roots gate, and the real tree (lib/ plus its roots and test/,
   which the source_tree deps make visible to this binary).  Fixtures
   live in strings so the lint run over test/ never trips on them. *)

module A = Effectkit.Analyze
module U = Effectkit.Unused
module E = Lintkit.Engine
module F = Lintkit.Finding

let rule_pure = "effect-pure"
let rule_det = "determinism"
let rule_unused = "unused-export"

let rules findings = List.map (fun f -> f.F.rule) findings

let check_rules label expected findings =
  Alcotest.(check (list string)) label expected (rules findings)

let lint ~rules files =
  fst
    (E.lint_strings
       ~enabled:(fun r -> List.mem r rules)
       ~passes:[ A.pass; U.pass ] files)

let analyze files = lint ~rules:[ rule_pure; rule_det ] files

let one ?(path = "lib/core/fixture.ml") code = analyze [ (path, code) ]

(* --- effect-pure --------------------------------------------------- *)

let test_pure () =
  check_rules "ref write in a pure function" [ rule_pure ]
    (one "(* effect: pure *)\nlet f r = r := 1\n");
  check_rules "field write in a pure function" [ rule_pure ]
    (one "(* effect: pure *)\nlet f st = st.weight <- 1\n");
  check_rules "array write in a pure function" [ rule_pure ]
    (one "(* effect: pure *)\nlet f a = a.(0) <- 1\n");
  check_rules "impure external in a pure function" [ rule_pure ]
    (one "(* effect: pure *)\nlet f tbl k = Hashtbl.replace tbl k 0\n");
  check_rules "arithmetic stays clean" []
    (one "(* effect: pure *)\nlet f x = (x * 2) + 1\n");
  check_rules "array read stays clean" []
    (one "(* effect: pure *)\nlet f a i = a.(i) + 1\n");
  check_rules "local ref inside an unannotated caller is its business" []
    (one "let f x = x + 1\n\nlet g r = r := 1\n")

let test_pure_transitive () =
  (* The write sits two calls away; the annotated root is blamed at
     its own call site, with the chain in the message. *)
  let fs =
    one
      "let sink st = st.weight <- 1\n\
       let middle st = sink st\n\
       (* effect: pure *)\n\
       let root st = middle st\n"
  in
  check_rules "transitive write reaches the annotated root" [ rule_pure ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "blamed file" "lib/core/fixture.ml" f.F.file;
  Alcotest.(check int) "blamed at the root's call site" 4 f.F.line

let test_fixpoint_mutual_recursion () =
  (* even/odd form a cycle; the fixpoint must terminate and carry
     even's write around it to the annotated caller. *)
  check_rules "cycle propagates the write" [ rule_pure ]
    (one
       "let rec even n tbl =\n\
       \  if n = 0 then true\n\
       \  else begin Hashtbl.replace tbl n true; odd (n - 1) tbl end\n\
       and odd n tbl = if n = 0 then false else even (n - 1) tbl\n\
       (* effect: pure *)\n\
       let check tbl = even 4 tbl\n");
  check_rules "clean cycle stays clean" []
    (one
       "let rec even n = if n = 0 then true else odd (n - 1)\n\
        and odd n = if n = 0 then false else even (n - 1)\n\
        (* effect: pure *)\n\
        let check () = even 4\n")

let test_unknown_callee () =
  (* A module the graph has never seen must not be assumed pure. *)
  let fs = one "(* effect: pure *)\nlet f x = Mystery.fn x\n" in
  check_rules "unknown callee is conservative" [ rule_pure ] fs;
  let msg = (List.hd fs).F.message in
  Alcotest.(check bool) "message says unknown" true
    (let re = Str.regexp_string "unknown" in
     try
       ignore (Str.search_forward re msg 0);
       true
     with Not_found -> false)

let test_required_callee_frontier () =
  (* A dirty pure-annotated helper is blamed once, at the frontier:
     its annotated callers trust the annotation instead of repeating
     the finding. *)
  let fs =
    one
      "(* effect: pure *)\n\
       let helper st = st.weight <- 1\n\
       (* effect: pure *)\n\
       let caller st = helper st\n"
  in
  check_rules "one finding at the frontier" [ rule_pure ] fs;
  Alcotest.(check int) "blamed on the helper" 2 (List.hd fs).F.line

(* --- determinism --------------------------------------------------- *)

let test_determinism () =
  check_rules "wall clock in lib/core" [ rule_det ]
    (one "let now () = Unix.gettimeofday ()\n");
  check_rules "self-seeded RNG in lib/bstnet" [ rule_det ]
    (one ~path:"lib/bstnet/fixture.ml" "let seed () = Random.self_init ()\n");
  check_rules "polymorphic hash as data in lib/forest" [ rule_det ]
    (one ~path:"lib/forest/fixture.ml" "let h x = Hashtbl.hash x\n");
  check_rules "domain identity as data in lib/core" [ rule_det ]
    (one "let me () = Domain.self ()\n");
  check_rules "wall clock outside the scope" []
    (one ~path:"lib/obskit/fixture.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "deterministic code in scope" []
    (one "let f x = x + 1\n")

(* --- annotations --------------------------------------------------- *)

let test_annotation_errors () =
  let directive = E.meta_directive in
  check_rules "unknown effect kind" [ directive ]
    (one "(* effect: bogus *)\nlet f x = x\n");
  check_rules "empty effect annotation" [ directive ]
    (one "(* effect: *)\nlet f x = x\n");
  check_rules "unattached annotation" [ directive ]
    (one "(* effect: pure *)\n\ntype t = int\n");
  check_rules "justification after the separator is fine" []
    (one "(* effect: pure -- writes nothing at all *)\nlet f x = x\n");
  check_rules "ordinary comments are not annotations" []
    (one "(* plain old comment *)\nlet f r = r := 1\n")

(* --- engine integration -------------------------------------------- *)

let test_suppression () =
  let run code =
    E.lint_strings
      ~enabled:(fun _ -> true)
      ~passes:[ A.pass ]
      [ ("lib/core/fixture.ml", code) ]
  in
  let findings, suppressed =
    run
      "(* effect: pure *)\n\
       let f r = r := 1 (* lint: allow effect-pure -- fixture *)\n"
  in
  check_rules "allow comment suppresses the finding" [] findings;
  Alcotest.(check int) "and counts it" 1 suppressed;
  let findings, suppressed = run "(* effect: pure *)\nlet f r = r := 1\n" in
  check_rules "unsuppressed finding survives the engine" [ rule_pure ]
    findings;
  Alcotest.(check int) "nothing suppressed" 0 suppressed

let test_rule_toggles () =
  let findings, _ =
    E.lint_strings
      ~enabled:(fun r -> not (String.equal r rule_pure))
      ~passes:[ A.pass ]
      [ ("lib/core/fixture.ml", "(* effect: pure *)\nlet f r = r := 1\n") ]
  in
  check_rules "disabled rule reports nothing" [] findings

(* --- the real tree ------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec walk ~suffixes dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then
        if Char.equal name.[0] '.' then acc else walk ~suffixes path acc
      else if List.exists (Filename.check_suffix path) suffixes then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* Under `dune runtest` the binary runs in _build/default/test/, where
   the source_tree deps materialize ../lib and the root directories;
   under `dune exec` from the repo root, they are right here. *)
let in_build () = Sys.file_exists "../lib" && Sys.is_directory "../lib"

(* [(repo-relative path, code)] of every file under [dir] with one of
   [suffixes], in sorted order. *)
let tree_sources ?(suffixes = [ ".ml" ]) dir =
  let root =
    if not (in_build ()) then dir
    else if String.equal dir "test" then "."
    else "../" ^ dir
  in
  let files = List.sort String.compare (walk ~suffixes root []) in
  List.map
    (fun path ->
      let rel =
        (* ../lib/core/step.ml -> lib/core/step.ml, ./t.ml -> test/t.ml *)
        if String.equal root dir then path
        else dir ^ String.sub path (String.length root) (String.length path - String.length root)
      in
      (rel, read_file path))
    files

let lib_sources () =
  let files = tree_sources "lib" in
  Alcotest.(check bool) "found the lib tree" true (List.length files > 20);
  files

let test_real_tree_clean () =
  check_rules "the shipped lib/ tree carries no effect findings" []
    (analyze (lib_sources ()))

(* Each seeded mutation injects one write into one real
   [(* effect: pure *)] function of the shipped tree: a direct array
   write, an external write, a record-field write and a write reached
   only through a call into another module.  [marker] must occur in
   [file] verbatim. *)
type mutation = {
  label : string;
  file : string;
  marker : string;
  body : string;
}

let mutations =
  [
    {
      label = "Potential.rank";
      file = "lib/core/potential.ml";
      marker = "let rank w =\n  if w <= 1 then 0.0";
      body = "let rank w =\n  table.(0) <- 0.0;\n  if w <= 1 then 0.0";
    };
    {
      label = "Ingest.parse_line";
      file = "lib/servekit/ingest.ml";
      marker = "let parse_line ~n s =\n";
      body = "let parse_line ~n s =\n  Hashtbl.replace seen s ();\n";
    };
    {
      label = "Bqueue.length";
      file = "lib/servekit/bqueue.ml";
      marker = "let length t = t.len";
      body = "let length t =\n  t.max_depth <- t.len;\n  t.len";
    };
    {
      label = "Http.request_target";
      file = "lib/servekit/http.ml";
      marker = "let request_target line =\n";
      body = "let request_target line =\n  print_string line;\n";
    };
    {
      label = "Step.climb_continues";
      file = "lib/core/step.ml";
      marker = "let climb_continues t ~node ~dst =\n";
      body = "let climb_continues t ~node ~dst =\n  T.set_root t node;\n";
    };
  ]

let test_seeded_mutation m () =
  (* The injected write must produce exactly one finding, on the
     mutated function's file. *)
  let mutated = ref false in
  let files =
    List.map
      (fun (path, code) ->
        if String.equal path m.file then begin
          let re = Str.regexp_string m.marker in
          (try ignore (Str.search_forward re code 0)
           with Not_found ->
             Alcotest.failf
               "mutation marker not found in %s — keep test_effectkit.ml's \
                marker in sync with %s"
               m.file m.label);
          mutated := true;
          (path, Str.replace_first re m.body code)
        end
        else (path, code))
      (lib_sources ())
  in
  Alcotest.(check bool) (m.file ^ " was in the tree") true !mutated;
  match analyze files with
  | [ f ] ->
      Alcotest.(check string) "rule" rule_pure f.F.rule;
      Alcotest.(check string) "file" m.file f.F.file
  | fs ->
      Alcotest.failf "%s: expected exactly one finding, got %d:\n%s" m.label
        (List.length fs)
        (String.concat "\n" (List.map F.to_string fs))

(* --- unused-export ---------------------------------------------- *)

(* The rule runs only when every root directory is among the inputs;
   fixtures name the roots they need and get empty stand-ins for the
   rest. *)
let with_roots files =
  let has dir =
    List.exists
      (fun (p, _) ->
        String.length p > String.length dir
        && String.equal (String.sub p 0 (String.length dir + 1)) (dir ^ "/"))
      files
  in
  files
  @ List.filter_map
      (fun dir -> if has dir then None else Some (dir ^ "/stub.ml", ""))
      [ "bin"; "bench"; "examples"; "perfbench" ]

let unused files = lint ~rules:[ rule_unused ] (with_roots files)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* [(canonical name, kind)] per finding, the name being the message's
   first word. *)
let kinds findings =
  List.map
    (fun f ->
      let msg = f.F.message in
      let name = List.hd (String.split_on_char ' ' msg) in
      let kind =
        if contains msg "unreached" then "unreached"
        else if contains msg "only inside its own module" then "own-module"
        else if contains msg "only from test/" then "test-only"
        else msg
      in
      (name, kind))
    findings

let check_kinds label expected findings =
  Alcotest.(check (list (pair string string))) label expected (kinds findings)

(* lib/alpha defines library Alpha; module A exports five values. *)
let alpha_mli =
  "val used : int -> int\n\
   val dead : int -> int\n\
   val helper : int -> int\n\
   val tested : int -> int\n\
   val internal : int -> int\n"

let alpha_ml =
  "let helper x = x + 1\n\
   let internal x = x - 1\n\
   let used x = helper (internal x)\n\
   let dead x = x\n\
   let tested x = x * 2\n"

let kinds_fixture () =
  unused
    [
      ("lib/alpha/a.mli", alpha_mli);
      ("lib/alpha/a.ml", alpha_ml);
      ("bin/main.ml", "let () = print_int (Alpha.A.used 1)\n");
      ( "test/test_a.ml",
        "let () = assert (Alpha.A.tested 1 = 2)\n\
         let () = assert (Alpha.A.internal 1 = 0)\n" );
    ]

let kind_of name findings =
  List.assoc_opt ("Alpha.A." ^ name) (kinds findings)

let test_unused_unreached () =
  let fs = kinds_fixture () in
  Alcotest.(check (option string)) "no root reaches it" (Some "unreached")
    (kind_of "dead" fs);
  Alcotest.(check (option string)) "a root reaches it" None (kind_of "used" fs);
  let f = List.find (fun f -> contains f.F.message "Alpha.A.dead") fs in
  Alcotest.(check (pair string int)) "blamed at its .mli line"
    ("lib/alpha/a.mli", 2) (f.F.file, f.F.line)

let test_unused_own_module () =
  Alcotest.(check (option string)) "only its own module calls it"
    (Some "own-module") (kind_of "helper" (kinds_fixture ()))

let test_unused_test_only () =
  Alcotest.(check (option string)) "only test/ reaches it" (Some "test-only")
    (kind_of "tested" (kinds_fixture ()))

let test_unused_exported_for_tests () =
  (* Live through its own module, but only test/ calls it from outside:
     unexporting it would break the test, so it is test-only too. *)
  Alcotest.(check (option string)) "outside its module, only test/ uses it"
    (Some "test-only")
    (kind_of "internal" (kinds_fixture ()))

(* One exported value [f]; [root] is the only file that may use it. *)
let one_use root =
  unused
    [
      ("lib/alpha/a.mli", "val f : int -> int\n");
      ("lib/alpha/a.ml", "let f x = x\n");
      ("bin/main.ml", root);
    ]

let test_unused_alias () =
  check_kinds "a module alias is a use" []
    (one_use "module M = Alpha.A\nlet () = print_int (M.f 1)\n")

let test_unused_let_open () =
  check_kinds "let open of the library is a use" []
    (one_use "let () = let open Alpha in print_int (A.f 1)\n");
  check_kinds "let open of the module is a use" []
    (one_use "let () = print_int (let open Alpha.A in f 1)\n");
  check_kinds "a top-level open is a use" []
    (one_use "open Alpha\nlet () = print_int (A.f 1)\n");
  check_kinds "a bare name outside any open is not" [ ("Alpha.A.f", "unreached") ]
    (one_use "let f x = x\nlet () = print_int (f 1)\n")

let test_unused_local_open () =
  check_kinds "M.( ... ) is a use" []
    (one_use "let () = print_int Alpha.A.(f 1)\n");
  check_kinds "an alias under a local open is a use" []
    (one_use "module L = Alpha\nlet () = print_int L.(A.f 1)\n")

let test_unused_top_level_effects () =
  check_kinds "let () = is a root" [] (one_use "let () = exit (Alpha.A.f 0)\n");
  check_kinds "let _ = is a root" [] (one_use "let _ = Alpha.A.f 0\n");
  check_kinds "a bare top-level expression is a root" []
    (one_use "let x = 1\n;;\nignore (Alpha.A.f x)\n")

let test_unused_include () =
  check_kinds "include uses the whole module" []
    (unused
       [
         ("lib/alpha/a.mli", "val f : int -> int\nval g : int -> int\n");
         ("lib/alpha/a.ml", "let f x = x\nlet g x = x\n");
         ("bin/main.ml", "include Alpha.A\n");
       ])

let test_unused_transitive () =
  (* bin -> A.top -> B.leaf keeps leaf alive; B.dead_leaf's only caller
     is dead itself, so both are unreached. *)
  check_kinds "reach is transitive, both ways"
    [ ("Alpha.A.dead_top", "unreached"); ("Alpha.B.dead_leaf", "unreached") ]
    (unused
       [
         ("lib/alpha/a.mli", "val top : int -> int\nval dead_top : int -> int\n");
         ("lib/alpha/a.ml", "let top x = B.leaf x\nlet dead_top x = B.dead_leaf x\n");
         ("lib/alpha/b.mli", "val leaf : int -> int\nval dead_leaf : int -> int\n");
         ("lib/alpha/b.ml", "let leaf x = x\nlet dead_leaf x = x\n");
         ("bin/main.ml", "let () = print_int (Alpha.A.top 1)\n");
       ])

let test_unused_binding_operators () =
  check_kinds "let* is a use of ( let* )" []
    (unused
       [
         ("lib/alpha/a.mli", "val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option\n");
         ("lib/alpha/a.ml", "let ( let* ) = Option.bind\n");
         ("bin/main.ml", "open Alpha.A\nlet () = ignore (let* x = Some 1 in Some x)\n");
       ])

let test_unused_nested_signature () =
  check_kinds "values of a nested signature are exports"
    [ ("Alpha.A.Ring.size", "unreached") ]
    (unused
       [
         ( "lib/alpha/a.mli",
           "module Ring : sig\n  val make : int -> int\n  val size : int -> int\nend\n" );
         ("lib/alpha/a.ml", "module Ring = struct\n  let make x = x\n  let size x = x\nend\n");
         ("bin/main.ml", "let () = print_int (Alpha.A.Ring.make 1)\n");
       ])

let test_unused_needs_roots () =
  (* Without bin/, bench/, examples/ and perfbench/ nothing is a root:
     the rule stays silent instead of calling everything dead. *)
  check_kinds "lib alone reports nothing" []
    (lint ~rules:[ rule_unused ]
       [ ("lib/alpha/a.mli", alpha_mli); ("lib/alpha/a.ml", alpha_ml) ])

let test_unused_suppression () =
  let findings, suppressed =
    E.lint_strings
      ~enabled:(String.equal rule_unused)
      ~passes:[ U.pass ]
      (with_roots
         [
           ( "lib/alpha/a.mli",
             "(* lint: allow unused-export -- oracle of the tests *)\n\
              val check : int -> bool\n" );
           ("lib/alpha/a.ml", "let check x = x > 0\n");
           ("test/test_a.ml", "let () = assert (Alpha.A.check 1)\n");
         ])
  in
  check_kinds "the allow comment keeps test support" [] findings;
  Alcotest.(check int) "and counts it" 1 suppressed

let test_open_resolves_effects () =
  (* A call under M.( ... ) resolves to M's definition, so the pure
     rule sees the write behind it. *)
  check_rules "write behind a local open" [ rule_pure ]
    (one
       "module Inner = struct\n\
       \  let dirty r = r := 1\n\
        end\n\
        (* effect: pure *)\n\
        let f r = Inner.(dirty r)\n")

let test_open_resolves_effects_top_level () =
  check_rules "write behind a top-level open" [ rule_pure ]
    (one
       "module Inner = struct\n\
       \  let dirty r = r := 1\n\
        end\n\
        open Inner\n\
        (* effect: pure *)\n\
        let f r = dirty r\n")

let test_binding_operator_effects () =
  (* [let*] calls the operator: its write reaches the pure caller. *)
  check_rules "write behind let*" [ rule_pure ]
    (one
       "let count = ref 0\n\
        let ( let* ) o f = incr count; Option.bind o f\n\
        (* effect: pure *)\n\
        let f o = let* x = o in Some x\n")

let test_unused_lib_effects () =
  check_kinds "a lib top-level effect is a root" []
    (unused
       [
         ("lib/alpha/a.mli", "val f : int -> int\n");
         ("lib/alpha/a.ml", "let f x = x\n");
         ("lib/alpha/b.mli", "");
         ("lib/alpha/b.ml", "let () = ignore (A.f 1)\n");
       ])

let test_unused_lib_alias () =
  check_kinds "an alias inside lib/ is a use" []
    (unused
       [
         ("lib/alpha/a.mli", "val f : int -> int\n");
         ("lib/alpha/a.ml", "let f x = x\n");
         ("lib/alpha/b.mli", "val g : int -> int\n");
         ("lib/alpha/b.ml", "module X = A\nlet g x = X.f x\n");
         ("bin/main.ml", "let () = print_int (Alpha.B.g 1)\n");
       ])

let test_unused_nested_opens () =
  check_kinds "an open relative to an earlier open is a use" []
    (one_use "open Alpha\nopen A\nlet () = print_int (f 1)\n")

let test_unused_self_recursion () =
  check_kinds "a value that only calls itself is dead" [ ("Alpha.A.f", "unreached") ]
    (unused
       [
         ("lib/alpha/a.mli", "val f : int -> int\n");
         ("lib/alpha/a.ml", "let rec f x = if x <= 0 then 0 else f (x - 1)\n");
         ("bin/main.ml", "let () = print_int 1\n");
       ])

let test_unused_dead_cycle () =
  check_kinds "a cycle no root enters is dead"
    [ ("Alpha.A.f", "unreached"); ("Alpha.B.g", "unreached") ]
    (unused
       [
         ("lib/alpha/a.mli", "val f : int -> int\n");
         ("lib/alpha/a.ml", "let f x = if x <= 0 then 0 else B.g (x - 1)\n");
         ("lib/alpha/b.mli", "val g : int -> int\n");
         ("lib/alpha/b.ml", "let g x = if x <= 0 then 0 else A.f (x - 1)\n");
         ("bin/main.ml", "let () = print_int 1\n");
       ])

let test_unused_undefined_skipped () =
  (* The graph names only [let x = ...] bindings; a value bound by a
     tuple pattern is outside it and skipped, not reported. *)
  check_kinds "values the graph does not define are skipped" []
    (unused
       [
         ("lib/alpha/a.mli", "val x : int\nval y : int\n");
         ("lib/alpha/a.ml", "let x, y = (1, 2)\n");
         ("bin/main.ml", "let () = print_int 1\n");
       ])

let test_unused_unparsable_root () =
  (* A root that fails to parse contributes nothing (the per-file lint
     reports it); the pass still runs over the rest. *)
  let fs = one_use "let () = ( print_int (Alpha.A.f 1)\n" in
  check_rules "the parse error is reported once" [ "parse-error" ]
    (List.filter (fun f -> not (String.equal f.F.rule rule_unused)) fs);
  check_kinds "a broken root is skipped" [ ("Alpha.A.f", "unreached") ]
    (List.filter (fun f -> String.equal f.F.rule rule_unused) fs)

let test_real_tree_no_unused () =
  let files =
    tree_sources ~suffixes:[ ".ml"; ".mli" ] "lib"
    @ List.concat_map tree_sources
        [ "bin"; "bench"; "examples"; "perfbench"; "test" ]
  in
  List.iter
    (fun dir ->
      Alcotest.(check bool) ("found " ^ dir) true
        (List.exists (fun (p, _) -> Filename.dirname p = dir) files))
    [ "bin"; "bench"; "examples"; "perfbench"; "test" ];
  let fs = lint ~rules:[ rule_unused ] files in
  Alcotest.(check (list string))
    "every lib export is reached from a root or kept as test support" []
    (List.map F.to_string fs)

let () =
  Alcotest.run "effectkit"
    [
      ( "effect-pure",
        [
          Alcotest.test_case "direct writes" `Quick test_pure;
          Alcotest.test_case "transitive blame" `Quick test_pure_transitive;
          Alcotest.test_case "mutual recursion fixpoint" `Quick
            test_fixpoint_mutual_recursion;
          Alcotest.test_case "unknown callee" `Quick test_unknown_callee;
          Alcotest.test_case "frontier blame" `Quick
            test_required_callee_frontier;
        ] );
      ( "determinism",
        [ Alcotest.test_case "banned sources" `Quick test_determinism ] );
      ( "annotations",
        [ Alcotest.test_case "errors" `Quick test_annotation_errors ] );
      ( "engine",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "rule toggles" `Quick test_rule_toggles;
        ] );
      ( "unused-export",
        [
          Alcotest.test_case "unreached" `Quick test_unused_unreached;
          Alcotest.test_case "own module" `Quick test_unused_own_module;
          Alcotest.test_case "test only" `Quick test_unused_test_only;
          Alcotest.test_case "exported for tests" `Quick
            test_unused_exported_for_tests;
          Alcotest.test_case "alias" `Quick test_unused_alias;
          Alcotest.test_case "let open" `Quick test_unused_let_open;
          Alcotest.test_case "local open" `Quick test_unused_local_open;
          Alcotest.test_case "top-level effects" `Quick
            test_unused_top_level_effects;
          Alcotest.test_case "include" `Quick test_unused_include;
          Alcotest.test_case "transitive" `Quick test_unused_transitive;
          Alcotest.test_case "binding operators" `Quick
            test_unused_binding_operators;
          Alcotest.test_case "nested signature" `Quick
            test_unused_nested_signature;
          Alcotest.test_case "needs roots" `Quick test_unused_needs_roots;
          Alcotest.test_case "suppression" `Quick test_unused_suppression;
          Alcotest.test_case "lib top-level effects" `Quick
            test_unused_lib_effects;
          Alcotest.test_case "lib alias" `Quick test_unused_lib_alias;
          Alcotest.test_case "nested opens" `Quick test_unused_nested_opens;
          Alcotest.test_case "self recursion" `Quick
            test_unused_self_recursion;
          Alcotest.test_case "dead cycle" `Quick test_unused_dead_cycle;
          Alcotest.test_case "undefined values skipped" `Quick
            test_unused_undefined_skipped;
          Alcotest.test_case "unparsable root" `Quick
            test_unused_unparsable_root;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "local open" `Quick test_open_resolves_effects;
          Alcotest.test_case "top-level open" `Quick
            test_open_resolves_effects_top_level;
          Alcotest.test_case "binding operators" `Quick
            test_binding_operator_effects;
        ] );
      ( "tree",
        [
          Alcotest.test_case "clean" `Quick test_real_tree_clean;
          Alcotest.test_case "no unused exports" `Quick
            test_real_tree_no_unused;
          Alcotest.test_case "seeded mutation" `Quick
            (test_seeded_mutation (List.hd mutations));
        ]
        @ List.map
            (fun m ->
              Alcotest.test_case ("seeded mutation: " ^ m.label) `Quick
                (test_seeded_mutation m))
            (List.tl mutations) );
    ]
