(* The lint engine: one violating and one clean fixture per rule,
   suppression comments, hot-region scoping, the shadow waiver and the
   baseline ratchet.  Fixtures live in strings so the engine's own run
   over test/ never trips on them. *)

module E = Lintkit.Engine
module B = Lintkit.Baseline
module F = Lintkit.Finding

let all_rules _ = true

let lint ?(path = "lib/core/fixture.ml") ?(mli_exists = true) code =
  E.lint_string ~enabled:all_rules ~path ~mli_exists code

let rules (findings, _suppressed) = List.map (fun f -> f.F.rule) findings

let check_rules label expected outcome =
  Alcotest.(check (list string)) label expected (rules outcome)

(* --- catch-all ----------------------------------------------------- *)

let test_catch_all () =
  check_rules "wildcard try handler" [ "catch-all" ]
    (lint "let f g = try g () with _ -> 0\n");
  check_rules "underscore-named binder" [ "catch-all" ]
    (lint "let f g = try g () with _e -> 0\n");
  check_rules "exception case in match" [ "catch-all" ]
    (lint "let f g = match g () with x -> x | exception _ -> 0\n");
  check_rules "specific exception is fine" []
    (lint "let f g = try g () with Not_found -> 0\n");
  check_rules "named binder is fine" []
    (lint "let f g = try g () with e -> raise e\n")

(* --- lock-safety --------------------------------------------------- *)

let test_lock_safety () =
  check_rules "bare lock/unlock" [ "lock-safety" ]
    (lint
       "let f m g =\n\
       \  Mutex.lock m;\n\
       \  let r = g () in\n\
       \  Mutex.unlock m;\n\
       \  r\n");
  check_rules "lock + Fun.protect is fine" []
    (lint
       "let f m g =\n\
       \  Mutex.lock m;\n\
       \  Fun.protect ~finally:(fun () -> Mutex.unlock m) g\n")

(* --- no-poly-compare ----------------------------------------------- *)

let test_poly_compare () =
  check_rules "structural = in lib/core" [ "no-poly-compare" ]
    (lint "let f a b = a = b\n");
  check_rules "structural <> in lib/bstnet" [ "no-poly-compare" ]
    (lint ~path:"lib/bstnet/fixture.ml" "let f a b = a <> b\n");
  check_rules "polymorphic compare" [ "no-poly-compare" ]
    (lint "let f a b = compare a b\n");
  check_rules "polymorphic hash" [ "no-poly-compare" ]
    (lint "let f x = Hashtbl.hash x\n");
  check_rules "out of scope in lib/simkit" []
    (lint ~path:"lib/simkit/fixture.ml" "let f a b = a = b\n");
  check_rules "literal operand is exempt" [] (lint "let f a = a = 3\n")

let test_poly_compare_shadow_waiver () =
  check_rules "monomorphic shadow waives uses" []
    (lint "let ( = ) : int -> int -> bool = Int.equal\nlet f a b = a = b\n");
  check_rules "shadow waives only the shadowed operator" [ "no-poly-compare" ]
    (lint "let ( = ) : int -> int -> bool = Int.equal\nlet f a b = a <> b\n")

(* --- no-alloc ------------------------------------------------------ *)

let hot body = "(* lint: hot *)\n" ^ body ^ "(* lint: hot-end *)\n"

let test_no_alloc () =
  check_rules "list literal in hot region" [ "no-alloc" ]
    (lint (hot "let f x = [ x ]\n"));
  check_rules "tuple in hot region" [ "no-alloc" ]
    (lint (hot "let f a b = (a, b)\n"));
  check_rules "argument closure in hot region" [ "no-alloc" ]
    (lint (hot "let f g x = g (fun () -> x)\n"));
  check_rules "List call in hot region" [ "no-alloc" ]
    (lint (hot "let f l = List.length l\n"));
  check_rules "same code outside a hot region" []
    (lint "let f x = [ x ]\nlet g a b = (a, b)\n");
  check_rules "defined functions are not closures" []
    (lint (hot "let f x = x + 1\nlet g y = f y\n"));
  check_rules "unclosed region runs to end of file" [ "no-alloc" ]
    (lint "(* lint: hot *)\nlet f x = [ x ]\n")

(* --- no-stdout ----------------------------------------------------- *)

let test_no_stdout () =
  check_rules "print_endline under lib/" [ "no-stdout" ]
    (lint ~path:"lib/obskit/fixture.ml"
       "let f () = print_endline \"hi\"\n");
  check_rules "Printf.printf under lib/" [ "no-stdout" ]
    (lint ~path:"lib/obskit/fixture.ml"
       "let f () = Printf.printf \"%d\" 3\n");
  check_rules "stdout is fine outside lib/" []
    (lint ~path:"bin/fixture.ml" "let f () = print_endline \"hi\"\n");
  check_rules "stderr is fine everywhere" []
    (lint ~path:"lib/obskit/fixture.ml" "let f () = prerr_endline \"hi\"\n")

(* --- mli-coverage -------------------------------------------------- *)

let test_mli_coverage () =
  check_rules "lib module without interface" [ "mli-coverage" ]
    (lint ~mli_exists:false "let x = 1\n");
  check_rules "lib module with interface" [] (lint "let x = 1\n");
  check_rules "bin module needs no interface" []
    (lint ~path:"bin/fixture.ml" ~mli_exists:false "let x = 1\n")

(* --- whitespace ---------------------------------------------------- *)

let test_whitespace () =
  check_rules "tab character" [ "whitespace" ] (lint "let x =\t1\n");
  check_rules "trailing whitespace" [ "whitespace" ] (lint "let x = 1 \n");
  check_rules "clean line" [] (lint "let x = 1\n")

(* --- suppression and directives ------------------------------------ *)

let test_suppression () =
  let findings, suppressed =
    lint "(* lint: allow no-poly-compare -- fixture *)\nlet f a b = a = b\n"
  in
  Alcotest.(check (list string)) "allow comment suppresses" []
    (List.map (fun f -> f.F.rule) findings);
  Alcotest.(check int) "suppression is counted" 1 suppressed;
  (* The allow names a rule; other rules on the line still fire. *)
  check_rules "allow is per-rule" [ "no-poly-compare" ]
    (lint "(* lint: allow catch-all -- fixture *)\nlet f a b = a = b\n");
  (* And it reaches only the next line. *)
  check_rules "allow does not reach further lines" [ "no-poly-compare" ]
    (lint
       "(* lint: allow no-poly-compare -- fixture *)\n\
        let g x = x\n\
        let f a b = a = b\n")

let test_pass_rules_in_catalog () =
  (* Tree-pass rules live in lib/effectkit but share the catalog, so
     --only/--disable and allow comments accept them. *)
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " is a known rule") true (Lintkit.Rules.known r))
    [ "effect-pure"; "determinism"; "unused-export" ];
  check_rules "an unused-export allow is a well-formed directive" []
    (lint ~path:"lib/core/fixture.mli"
       "(* lint: allow unused-export -- test support *)\nval f : int\n")

let test_directive_errors () =
  check_rules "unknown rule name" [ E.meta_directive ]
    (lint "(* lint: allow bogus-rule -- x *)\nlet x = 1\n");
  check_rules "justification must be separated" [ E.meta_directive ]
    (lint "(* lint: allow no-poly-compare oops *)\nlet x = 1\n");
  check_rules "hot-end without hot" [ E.meta_directive ]
    (lint "(* lint: hot-end *)\nlet x = 1\n");
  check_rules "nested hot" [ E.meta_directive; "no-alloc" ]
    (lint "(* lint: hot *)\n(* lint: hot *)\nlet f x = [ x ]\n");
  check_rules "well-formed directives are silent" []
    (lint (hot "let f x = x\n"))

let test_parse_error () =
  check_rules "unparseable file" [ "parse-error" ] (lint "let = = (\n")

(* --- rule toggles -------------------------------------------------- *)

let test_rule_toggles () =
  let only rule r = String.equal rule r in
  let findings, _ =
    E.lint_string
      ~enabled:(only "catch-all")
      ~path:"lib/core/fixture.ml" ~mli_exists:true
      "let f g = try g () with _ -> g () = 3\n"
  in
  Alcotest.(check (list string)) "disabled rules stay quiet" [ "catch-all" ]
    (List.map (fun f -> f.F.rule) findings)

(* --- findings ------------------------------------------------------ *)

let test_finding_rendering () =
  let f = F.v ~file:"lib/a.ml" ~line:3 ~col:7 ~rule:"catch-all" "dropped" in
  Alcotest.(check string) "to_string" "lib/a.ml:3:7 [catch-all] dropped"
    (F.to_string f);
  Alcotest.(check string) "key is position-independent"
    "lib/a.ml|catch-all|dropped" (F.key f)

(* --- baseline ratchet ---------------------------------------------- *)

let test_baseline_ratchet () =
  let key = "lib/core/x.ml|catch-all|msg" in
  let b = B.of_lines [ "# header"; ""; key ] in
  Alcotest.(check (list string)) "comments and blanks are skipped" [ key ]
    (B.stale b);
  Alcotest.(check bool) "entry grandfathers its finding" true
    (B.matches b key);
  Alcotest.(check bool) "an unlisted key does not match" false
    (B.matches b "other.ml|rule|msg");
  Alcotest.(check (list string)) "matched entries are not stale" []
    (B.stale b)

let test_baseline_only_shrinks () =
  let b = B.of_lines [ "fixed.ml|catch-all|msg" ] in
  (* No finding matched the entry: the ratchet flags it for removal. *)
  Alcotest.(check (list string)) "unmatched entries are stale"
    [ "fixed.ml|catch-all|msg" ] (B.stale b);
  Alcotest.(check (list string)) "empty baseline is empty" []
    (B.stale (B.empty ()))

let () =
  Alcotest.run "lintkit"
    [
      ( "rules",
        [
          Alcotest.test_case "catch-all" `Quick test_catch_all;
          Alcotest.test_case "lock-safety" `Quick test_lock_safety;
          Alcotest.test_case "no-poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "shadow waiver" `Quick
            test_poly_compare_shadow_waiver;
          Alcotest.test_case "no-alloc" `Quick test_no_alloc;
          Alcotest.test_case "no-stdout" `Quick test_no_stdout;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "whitespace" `Quick test_whitespace;
        ] );
      ( "engine",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "directive errors" `Quick test_directive_errors;
          Alcotest.test_case "pass rules in catalog" `Quick
            test_pass_rules_in_catalog;
          Alcotest.test_case "parse errors" `Quick test_parse_error;
          Alcotest.test_case "rule toggles" `Quick test_rule_toggles;
          Alcotest.test_case "finding rendering" `Quick test_finding_rendering;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "ratchet" `Quick test_baseline_ratchet;
          Alcotest.test_case "only shrinks" `Quick test_baseline_only_shrinks;
        ] );
    ]
