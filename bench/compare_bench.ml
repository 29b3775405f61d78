(* Compare a bench file against a baseline of the same suite.

     compare_bench BASELINE.json CURRENT.json

   Rows match by key, and each metric is checked in its suite's
   direction against the 20% bound (Runtime.Bench_row.check and
   compare, docs/PERFORMANCE.md).  Exit 1 when a gated metric is worse than its
   bound, 2 on unreadable input, a suite mismatch or bad usage, and 0
   otherwise: advisory trends never fail. *)

module B = Runtime.Bench_row

let () =
  let fail msg =
    prerr_endline ("compare_bench: " ^ msg);
    exit 2
  in
  match Sys.argv with
  | [| _; baseline; current |] -> (
      match B.compare Format.std_formatter ~baseline:(B.read baseline) (B.read current) with
      | Ok failures -> exit (if failures > 0 then 1 else 0)
      | Error msg -> fail msg
      | exception (B.Parse_error msg | Sys_error msg) -> fail msg)
  | _ -> fail "usage: compare_bench BASELINE.json CURRENT.json"
