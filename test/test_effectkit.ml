(* The effect analysis: per-rule violating and clean fixtures, the
   least fixpoint over mutual recursion, unknown-callee conservatism,
   annotation errors, suppression through the engine, and the
   seeded-mutation catch over the real
   lib/ tree (which the (source_tree ../lib) dep makes visible to this
   binary).  Fixtures live in strings so the lint run over test/
   never trips on them. *)

module A = Effectkit.Analyze
module C = Effectkit.Callgraph
module E = Lintkit.Engine
module F = Lintkit.Finding

let rules findings = List.map (fun f -> f.F.rule) findings

let check_rules label expected findings =
  Alcotest.(check (list string)) label expected (rules findings)

let analyze files = A.analyze_strings files

let one ?(path = "lib/core/fixture.ml") code = analyze [ (path, code) ]

(* --- effect-pure --------------------------------------------------- *)

let test_pure () =
  check_rules "ref write in a pure function" [ A.rule_pure ]
    (one "(* effect: pure *)\nlet f r = r := 1\n");
  check_rules "field write in a pure function" [ A.rule_pure ]
    (one "(* effect: pure *)\nlet f st = st.weight <- 1\n");
  check_rules "array write in a pure function" [ A.rule_pure ]
    (one "(* effect: pure *)\nlet f a = a.(0) <- 1\n");
  check_rules "impure external in a pure function" [ A.rule_pure ]
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
  check_rules "transitive write reaches the annotated root" [ A.rule_pure ] fs;
  let f = List.hd fs in
  Alcotest.(check string) "blamed file" "lib/core/fixture.ml" f.F.file;
  Alcotest.(check int) "blamed at the root's call site" 4 f.F.line

let test_fixpoint_mutual_recursion () =
  (* even/odd form a cycle; the fixpoint must terminate and carry
     even's write around it to the annotated caller. *)
  check_rules "cycle propagates the write" [ A.rule_pure ]
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
  check_rules "unknown callee is conservative" [ A.rule_pure ] fs;
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
  check_rules "one finding at the frontier" [ A.rule_pure ] fs;
  Alcotest.(check int) "blamed on the helper" 2 (List.hd fs).F.line

(* --- determinism --------------------------------------------------- *)

let test_determinism () =
  check_rules "wall clock in lib/core" [ A.rule_det ]
    (one "let now () = Unix.gettimeofday ()\n");
  check_rules "self-seeded RNG in lib/bstnet" [ A.rule_det ]
    (one ~path:"lib/bstnet/fixture.ml" "let seed () = Random.self_init ()\n");
  check_rules "polymorphic hash as data in lib/forest" [ A.rule_det ]
    (one ~path:"lib/forest/fixture.ml" "let h x = Hashtbl.hash x\n");
  check_rules "domain identity as data in lib/core" [ A.rule_det ]
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
  Alcotest.(check bool) "parser accepts pure" true
    (match C.annotation_of_text " effect: pure " with
    | Some (Ok Effectkit.Summary.Pure) -> true
    | _ -> false);
  Alcotest.(check bool) "ordinary comments are not annotations" true
    (Option.is_none (C.annotation_of_text " plain old comment "))

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
  check_rules "unsuppressed finding survives the engine" [ A.rule_pure ]
    findings;
  Alcotest.(check int) "nothing suppressed" 0 suppressed

let test_rule_toggles () =
  let findings, _ =
    E.lint_strings
      ~enabled:(fun r -> not (String.equal r A.rule_pure))
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

let rec walk dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path acc
      else if Filename.check_suffix path ".ml" then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* Under `dune runtest` the binary runs in _build/default/test/, where
   the source_tree dep materializes ../lib; under `dune exec` from the
   repo root, lib/ is right here. *)
let lib_root () =
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then "../lib"
  else "lib"

let lib_sources () =
  let root = lib_root () in
  let files = List.sort String.compare (walk root []) in
  Alcotest.(check bool) "found the lib tree" true (List.length files > 20);
  List.map
    (fun path ->
      (* ../lib/core/step.ml -> lib/core/step.ml *)
      let rel =
        if String.length path > 3 && String.equal (String.sub path 0 3) "../"
        then String.sub path 3 (String.length path - 3)
        else path
      in
      (rel, read_file path))
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
      Alcotest.(check string) "rule" A.rule_pure f.F.rule;
      Alcotest.(check string) "file" m.file f.F.file
  | fs ->
      Alcotest.failf "%s: expected exactly one finding, got %d:\n%s" m.label
        (List.length fs)
        (String.concat "\n" (List.map F.to_string fs))

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
      ( "tree",
        [
          Alcotest.test_case "clean" `Quick test_real_tree_clean;
          Alcotest.test_case "seeded mutation" `Quick
            (test_seeded_mutation (List.hd mutations));
        ]
        @ List.map
            (fun m ->
              Alcotest.test_case ("seeded mutation: " ^ m.label) `Quick
                (test_seeded_mutation m))
            (List.tl mutations) );
    ]
