(* CBNet's lint driver: parse every .ml/.mli under the given paths
   with compiler-libs and enforce the concurrency/hot-path invariants
   (see docs/LINTING.md).  Exit 0 when clean, 1 on findings or stale
   baseline entries, 2 on usage errors. *)

let default_baseline = "lint/baseline.txt"

let usage () =
  prerr_endline
    "usage: cbnet_lint [options] <dir|file>...\n\
     \n\
     Static analysis enforcing CBNet's concurrency and hot-path\n\
     invariants.  See docs/LINTING.md for the rule catalog.\n\
     \n\
     options:\n\
    \  --baseline FILE    baseline ratchet file (default lint/baseline.txt\n\
    \                     when it exists)\n\
    \  --no-baseline      ignore any baseline file\n\
    \  --update-baseline  rewrite the baseline with the current findings\n\
    \  --only R1,R2       enable only these rules\n\
    \  --disable R1,R2    disable these rules\n\
    \  --format FMT       finding output: plain (default) or github\n\
    \                     (::error workflow annotations)\n\
    \  --list-rules       print the rule catalog and exit\n\
     \n\
     exit status: 0 clean, 1 findings or stale baseline entries, 2 usage"

let split_rules s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun r -> not (String.equal r ""))

let bad_usage msg =
  Printf.eprintf "cbnet_lint: %s\n\n" msg;
  usage ();
  exit 2

let validate_rules rules =
  List.iter
    (fun r ->
      if not (Lintkit.Rules.known r) then
        bad_usage (Printf.sprintf "unknown rule %S (try --list-rules)" r))
    rules

(* GitHub workflow-command data escaping: the message part escapes
   %/CR/LF, the property parts additionally , and :. *)
let gh_escape_data s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let gh_escape_prop s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '\r' -> Buffer.add_string b "%0D"
      | '\n' -> Buffer.add_string b "%0A"
      | ',' -> Buffer.add_string b "%2C"
      | ':' -> Buffer.add_string b "%3A"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_finding ~format (f : Lintkit.Finding.t) =
  match format with
  | `Plain -> print_endline (Lintkit.Finding.to_string f)
  | `Github ->
      Printf.printf "::error file=%s,line=%d,col=%d,title=%s::%s\n"
        (gh_escape_prop f.Lintkit.Finding.file)
        f.Lintkit.Finding.line f.Lintkit.Finding.col
        (gh_escape_prop f.Lintkit.Finding.rule)
        (gh_escape_data f.Lintkit.Finding.message)

let print_stale ~format ~baseline_file key =
  match format with
  | `Plain ->
      Printf.printf "stale baseline entry (fixed — remove it from %s): %s\n"
        baseline_file key
  | `Github ->
      Printf.printf "::error title=stale-baseline::%s\n"
        (gh_escape_data
           (Printf.sprintf
              "stale baseline entry (fixed — remove it from %s): %s"
              baseline_file key))

let () =
  let paths = ref [] in
  let baseline_path = ref None in
  let no_baseline = ref false in
  let update_baseline = ref false in
  let only = ref None in
  let disabled = ref [] in
  let format = ref `Plain in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--list-rules" :: _ ->
        List.iter
          (fun (id, desc) -> Printf.printf "%-16s %s\n" id desc)
          Lintkit.Rules.all;
        exit 0
    | "--baseline" :: file :: rest ->
        baseline_path := Some file;
        parse rest
    | "--baseline" :: [] -> bad_usage "--baseline needs a file argument"
    | "--no-baseline" :: rest ->
        no_baseline := true;
        parse rest
    | "--update-baseline" :: rest ->
        update_baseline := true;
        parse rest
    | "--only" :: rules :: rest ->
        let rules = split_rules rules in
        validate_rules rules;
        only := Some rules;
        parse rest
    | "--only" :: [] -> bad_usage "--only needs a rule list"
    | "--disable" :: rules :: rest ->
        let rules = split_rules rules in
        validate_rules rules;
        disabled := rules @ !disabled;
        parse rest
    | "--disable" :: [] -> bad_usage "--disable needs a rule list"
    | "--format" :: fmt :: rest ->
        (match fmt with
        | "plain" -> format := `Plain
        | "github" -> format := `Github
        | other ->
            bad_usage
              (Printf.sprintf "unknown format %S (expected plain or github)"
                 other));
        parse rest
    | "--format" :: [] -> bad_usage "--format needs plain or github"
    | arg :: _ when String.length arg > 2 && String.equal (String.sub arg 0 2) "--"
      ->
        bad_usage (Printf.sprintf "unknown option %s" arg)
    | path :: rest ->
        paths := path :: !paths;
        parse rest
  in
  parse args;
  let paths = List.rev !paths in
  if List.is_empty paths then bad_usage "no files or directories given";
  List.iter
    (fun p -> if not (Sys.file_exists p) then bad_usage (p ^ ": no such path"))
    paths;
  let enabled rule =
    (match !only with
    | Some rules -> List.exists (String.equal rule) rules
    | None -> true)
    && not (List.exists (String.equal rule) !disabled)
  in
  let baseline_file =
    if !no_baseline then None
    else
      match !baseline_path with
      | Some f -> Some f
      | None -> if Sys.file_exists default_baseline then Some default_baseline
                else None
  in
  let passes = [ Effectkit.Analyze.pass; Effectkit.Unused.pass ] in
  if !update_baseline then begin
    let target =
      match !baseline_path with Some f -> f | None -> default_baseline
    in
    let outcome = Lintkit.Engine.run ~enabled ~passes paths in
    let keys = List.map Lintkit.Finding.key outcome.Lintkit.Engine.findings in
    Lintkit.Baseline.save target keys;
    Printf.printf "cbnet_lint: wrote %d baseline entries to %s\n"
      (List.length (List.sort_uniq String.compare keys))
      target;
    exit 0
  end;
  let baseline = Option.map Lintkit.Baseline.load baseline_file in
  let outcome = Lintkit.Engine.run ~enabled ~passes ?baseline paths in
  List.iter
    (fun f -> print_finding ~format:!format f)
    outcome.Lintkit.Engine.findings;
  List.iter
    (print_stale ~format:!format
       ~baseline_file:(Option.value baseline_file ~default:default_baseline))
    outcome.Lintkit.Engine.stale;
  Printf.eprintf
    "cbnet_lint: %d finding(s), %d baselined, %d suppressed in %d file(s)\n"
    (List.length outcome.Lintkit.Engine.findings)
    outcome.Lintkit.Engine.baselined outcome.Lintkit.Engine.suppressed
    outcome.Lintkit.Engine.files;
  exit (if Lintkit.Engine.clean outcome then 0 else 1)
