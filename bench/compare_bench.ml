(* Throughput-regression comparator for bench_json artifacts.

     compare_bench OLD.json NEW.json [--threshold PCT]
     compare_bench --profile BASELINE.json NEW.json

   Default mode matches cells by (workload, algo) and compares
   rounds_per_sec.  Exit 1 when any matching cell regressed by more
   than the threshold (default 20%), exit 2 on unreadable input.
   Cells present on only one side, or missing the metric (older
   artifacts predate it), are reported and skipped — the step must
   stay useful against historical files.

   --profile diffs two profile_json artifacts (bench perf --profile):
   per-phase share-of-round-wall deltas in percentage points.  Purely
   advisory — phase shares shift with machine load — so the step
   reports trends and exits 0 unless an input is unreadable (exit 2).

   --serve diffs two serve_json artifacts (bench serve-smoke): rows
   match by shape label, and the report shows sustained rounds/sec,
   shed counts and queue-depth quantiles side by side.  Purely
   advisory — serve throughput mixes executor speed with shape
   arithmetic and shed behaviour shifts legitimately with policy
   changes — so the step reports trends and exits 0 unless an input
   is unreadable (exit 2).

   --forest compares two forest_json artifacts (bench forest-smoke /
   forest-scaling): rows match by (workload, n, shards, domains), and
   each file's host_cores decides which checks are meaningful.  A
   rounds/sec drop beyond the threshold is blocking only when both
   hosts had at least that row's domain count in cores (a 4-domain
   point measured on a 1-core box is oversubscription noise, not a
   regression).  Shard decomposition changes the algorithm's work, so
   only like-for-like cells are compared.

   The repository deliberately has no JSON dependency; this is a
   minimal recursive-descent parser for the subset bench_json emits
   (objects, arrays, strings with escapes, numbers, booleans, null). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* Pass code points through as '?': bench_json never
                 emits \u escapes; tolerate them without decoding. *)
              advance ();
              advance ();
              advance ();
              Buffer.add_char b '?'
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numchar (peek ()) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else Obj (members [])
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else List (elements [])
    | '"' ->
        advance ();
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (number ())
    | _ -> fail "unexpected character"
  and members acc =
    skip_ws ();
    expect '"';
    let k = string_body () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | ',' ->
        advance ();
        members ((k, v) :: acc)
    | '}' ->
        advance ();
        List.rev ((k, v) :: acc)
    | _ -> fail "expected ',' or '}'"
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | ',' ->
        advance ();
        elements (v :: acc)
    | ']' ->
        advance ();
        List.rev (v :: acc)
    | _ -> fail "expected ',' or ']'"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field obj k =
  match field obj k with Some (Str s) -> Some s | _ -> None

let num_field obj k =
  match field obj k with Some (Num f) -> Some f | _ -> None

type cell = { workload : string; algo : string; rps : float option }

let read_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  parse body

let cells_of_file path =
  let root = read_json path in
  match field root "cells" with
  | Some (List cs) ->
      List.filter_map
        (fun c ->
          match (str_field c "workload", str_field c "algo") with
          | Some workload, Some algo ->
              Some { workload; algo; rps = num_field c "rounds_per_sec" }
          | _ -> None)
        cs
  | _ -> raise (Parse_error "no \"cells\" array")

(* One forest_json row (Runtime.Export.forest_json). *)
type frow = {
  fworkload : string;
  fn : int;
  fshards : int;
  fdomains : int;
  frps : float option;
}

let forest_of_file path =
  let root = read_json path in
  let host_cores =
    match num_field root "host_cores" with
    | Some c -> int_of_float c
    | None -> raise (Parse_error "no \"host_cores\" field")
  in
  match field root "rows" with
  | Some (List rs) ->
      let rows =
        List.filter_map
          (fun r ->
            match
              ( str_field r "workload",
                num_field r "n",
                num_field r "shards",
                num_field r "domains" )
            with
            | Some fworkload, Some n, Some k, Some d ->
                Some
                  {
                    fworkload;
                    fn = int_of_float n;
                    fshards = int_of_float k;
                    fdomains = int_of_float d;
                    frps = num_field r "rounds_per_sec";
                  }
            | _ -> None)
          rs
      in
      (host_cores, rows)
  | _ -> raise (Parse_error "no \"rows\" array")

(* The --forest gate: per-row regressions on matching
   (workload, n, shards, domains) cells, blocking only where both
   hosts' core counts cover the row's domain count.  Returns the
   failure count. *)
let compare_forest ~threshold old_path new_path =
  let old_cores, old_rows = forest_of_file old_path in
  let new_cores, new_rows = forest_of_file new_path in
  Printf.printf "forest: baseline host_cores=%d, current host_cores=%d\n"
    old_cores new_cores;
  let failures = ref 0 and compared = ref 0 in
  List.iter
    (fun (o : frow) ->
      match
        List.find_opt
          (fun (r : frow) ->
            r.fworkload = o.fworkload && r.fn = o.fn && r.fshards = o.fshards
            && r.fdomains = o.fdomains)
          new_rows
      with
      | None ->
          Printf.printf "SKIP  %-10s n=%-8d shards=%-3d domains=%d only in %s\n"
            o.fworkload o.fn o.fshards o.fdomains old_path
      | Some nw -> (
          match (o.frps, nw.frps) with
          | Some orps, Some nrps when orps > 0.0 ->
              incr compared;
              let change = (nrps -. orps) /. orps *. 100.0 in
              let meaningful =
                old_cores >= o.fdomains && new_cores >= o.fdomains
              in
              let bad = change < -.threshold && meaningful in
              if bad then incr failures;
              Printf.printf
                "%s  %-10s n=%-8d shards=%-3d domains=%d %12.0f -> %12.0f  \
                 %+6.1f%%%s\n"
                (if bad then "FAIL"
                 else if change < -.threshold then "warn"
                 else "ok  ")
                o.fworkload o.fn o.fshards o.fdomains orps nrps change
                (if meaningful then ""
                 else " (advisory: fewer cores than domains)")
          | _ ->
              Printf.printf
                "SKIP  %-10s n=%-8d shards=%-3d domains=%d rounds_per_sec \
                 missing\n"
                o.fworkload o.fn o.fshards o.fdomains))
    old_rows;
  List.iter
    (fun (r : frow) ->
      if
        not
          (List.exists
             (fun (o : frow) ->
               o.fworkload = r.fworkload && o.fn = r.fn
               && o.fshards = r.fshards && o.fdomains = r.fdomains)
             old_rows)
      then
        Printf.printf "NEW   %-10s n=%-8d shards=%-3d domains=%d only in %s\n"
          r.fworkload r.fn r.fshards r.fdomains new_path)
    new_rows;
  Printf.printf "compared %d forest rows, %d failure(s)\n" !compared !failures;
  !failures

(* One serve_json row (Runtime.Export.serve_json), reduced to what
   the advisory diff needs. *)
type srow = {
  sshape : string;
  srps : float option;
  sshed : float option;
  sq_p95 : float option;
}

let serve_of_file path =
  let root = read_json path in
  match field root "rows" with
  | Some (List rs) ->
      List.filter_map
        (fun r ->
          match str_field r "shape" with
          | Some sshape ->
              Some
                {
                  sshape;
                  srps = num_field r "rounds_per_sec";
                  sshed = num_field r "shed";
                  sq_p95 = num_field r "q_p95";
                }
          | None -> None)
        rs
  | _ -> raise (Parse_error "no \"rows\" array")

(* The --serve advisory report: never blocking, always exit 0 on
   readable inputs. *)
let compare_serve old_path new_path =
  let old_rows = serve_of_file old_path in
  let new_rows = serve_of_file new_path in
  let show = function Some f -> Printf.sprintf "%.0f" f | None -> "-" in
  List.iter
    (fun (o : srow) ->
      match
        List.find_opt (fun (r : srow) -> r.sshape = o.sshape) new_rows
      with
      | None -> Printf.printf "SKIP  %-24s only in %s\n" o.sshape old_path
      | Some nw -> (
          (match (o.sshed, nw.sshed) with
          | Some a, Some b when a <> b ->
              Printf.printf "info  %-24s shed %s -> %s, q_p95 %s -> %s\n"
                o.sshape (show o.sshed) (show nw.sshed) (show o.sq_p95)
                (show nw.sq_p95)
          | _ -> ());
          match (o.srps, nw.srps) with
          | Some orps, Some nrps when orps > 0.0 ->
              Printf.printf "info  %-24s rounds/s %12.0f -> %12.0f  %+6.1f%%\n"
                o.sshape orps nrps
                ((nrps -. orps) /. orps *. 100.0)
          | _ -> Printf.printf "SKIP  %-24s rounds_per_sec missing\n" o.sshape))
    old_rows;
  List.iter
    (fun (r : srow) ->
      if not (List.exists (fun (o : srow) -> o.sshape = r.sshape) old_rows)
      then Printf.printf "NEW   %-24s only in %s\n" r.sshape new_path)
    new_rows;
  Printf.printf "serve diff is advisory; not gating\n"

(* One profile_json artifact (Runtime.Export.profile_json), reduced
   to what the advisory diff needs. *)
type prof = {
  rounds : int;
  shares : (string * float) list;  (** phase -> share of round wall. *)
}

let profile_of_file path =
  let root = read_json path in
  let shares =
    match field root "phases" with
    | Some (List ps) ->
        List.filter_map
          (fun p ->
            match (str_field p "phase", num_field p "share") with
            | Some name, Some share -> Some (name, share)
            | _ -> None)
          ps
    | _ -> raise (Parse_error "no \"phases\" array")
  in
  {
    rounds =
      (match num_field root "rounds" with
      | Some r -> int_of_float r
      | None -> 0);
    shares;
  }

(* The --profile advisory report: never blocking, always exit 0 on
   readable inputs. *)
let compare_profile old_path new_path =
  let o = profile_of_file old_path in
  let nw = profile_of_file new_path in
  Printf.printf "profile: baseline rounds=%d, current rounds=%d\n" o.rounds
    nw.rounds;
  List.iter
    (fun (phase, nshare) ->
      match List.assoc_opt phase o.shares with
      | Some oshare ->
          Printf.printf "info  %-16s share %5.1f%% -> %5.1f%%  (%+.1fpp)\n"
            phase (100.0 *. oshare) (100.0 *. nshare)
            (100.0 *. (nshare -. oshare))
      | None -> Printf.printf "NEW   %-16s share %5.1f%%\n" phase (100.0 *. nshare))
    nw.shares;
  Printf.printf "profile diff is advisory; not gating\n"

(* The default mode: rounds/sec per (workload, algo) cell.  Returns the
   regression count. *)
let compare_cells ~threshold old_path new_path =
  let old_cells = cells_of_file old_path in
  let new_cells = cells_of_file new_path in
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun (o : cell) ->
      match
        List.find_opt
          (fun (c : cell) -> c.workload = o.workload && c.algo = o.algo)
          new_cells
      with
      | None ->
          Printf.printf "SKIP  %-14s %-8s only in %s\n" o.workload o.algo
            old_path
      | Some nw -> (
          match (o.rps, nw.rps) with
          | Some orps, Some nrps when orps > 0.0 ->
              incr compared;
              let change = (nrps -. orps) /. orps *. 100.0 in
              let bad = change < -.threshold in
              if bad then incr regressions;
              Printf.printf "%s  %-14s %-8s %12.0f -> %12.0f  %+6.1f%%\n"
                (if bad then "FAIL" else "ok  ")
                o.workload o.algo orps nrps change
          | _ ->
              Printf.printf "SKIP  %-14s %-8s rounds_per_sec missing\n"
                o.workload o.algo))
    old_cells;
  List.iter
    (fun (c : cell) ->
      if
        not
          (List.exists
             (fun (o : cell) -> o.workload = c.workload && o.algo = c.algo)
             old_cells)
      then
        Printf.printf "NEW   %-14s %-8s only in %s\n" c.workload c.algo
          new_path)
    new_cells;
  Printf.printf "compared %d cells, %d regression(s) beyond %.0f%%\n"
    !compared !regressions threshold;
  !regressions

let () =
  let args = Array.to_list Sys.argv in
  let threshold = ref 20.0 in
  let forest = ref false in
  let profile = ref false in
  let serve = ref false in
  let files = ref [] in
  let positive_float flag v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> f
    | _ ->
        Printf.eprintf "compare_bench: %s expects a positive number\n" flag;
        exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        threshold := positive_float "--threshold" v;
        parse_args rest
    | "--forest" :: rest ->
        forest := true;
        parse_args rest
    | "--profile" :: rest ->
        profile := true;
        parse_args rest
    | "--serve" :: rest ->
        serve := true;
        parse_args rest
    | a :: rest ->
        files := a :: !files;
        parse_args rest
  in
  parse_args (List.tl args);
  (* Each mode returns its failure count; unreadable input exits 2. *)
  let run f =
    match f () with
    | failures -> exit (if failures > 0 then 1 else 0)
    | exception Parse_error msg ->
        Printf.eprintf "compare_bench: parse error: %s\n" msg;
        exit 2
    | exception Sys_error msg ->
        Printf.eprintf "compare_bench: %s\n" msg;
        exit 2
  in
  match List.rev !files with
  | [ old_path; new_path ] when !profile ->
      run (fun () ->
          compare_profile old_path new_path;
          0)
  | [ old_path; new_path ] when !serve ->
      run (fun () ->
          compare_serve old_path new_path;
          0)
  | [ old_path; new_path ] when !forest ->
      run (fun () -> compare_forest ~threshold:!threshold old_path new_path)
  | [ old_path; new_path ] ->
      run (fun () -> compare_cells ~threshold:!threshold old_path new_path)
  | _ ->
      prerr_endline
        "usage: compare_bench OLD.json NEW.json [--threshold PCT]\n\
        \       compare_bench --forest BASELINE.json NEW.json [--threshold \
         PCT]\n\
        \       compare_bench --profile BASELINE.json NEW.json\n\
        \       compare_bench --serve BASELINE.json NEW.json";
      exit 2
