let pad width s =
  let len = String.length s in
  if len >= width then s else s ^ String.make (width - len) ' '

let table ?title ~headers rows fmt =
  let all_rows = headers :: rows in
  let cols = List.length headers in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < cols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    all_rows;
  (match title with Some t -> Format.fprintf fmt "== %s ==@." t | None -> ());
  let render row =
    let cells = List.mapi (fun i cell -> pad widths.(i) cell) row in
    Format.fprintf fmt "%s@." (String.trim (String.concat "  " cells))
  in
  render headers;
  let rule = List.init cols (fun i -> String.make widths.(i) '-') in
  render rule;
  List.iter render rows

let bar ~value ~max ~width =
  if max <= 0.0 then ""
  else begin
    let k = int_of_float (Float.round (value /. max *. float_of_int width)) in
    String.make (Stdlib.max 0 (Stdlib.min width k)) '#'
  end

let stacked_bar ~parts ~max ~width =
  if max <= 0.0 then ""
  else
    String.concat ""
      (List.map
         (fun (ch, v) ->
           let k = int_of_float (Float.round (v /. max *. float_of_int width)) in
           String.make (Stdlib.max 0 (Stdlib.min width k)) ch)
         parts)

let scatter ~width ~height ~xlabel ~ylabel points fmt =
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun (x, y, ch) ->
      let clamp v = Float.min 1.0 (Float.max 0.0 v) in
      let col = int_of_float (clamp x *. float_of_int (width - 1)) in
      let row = height - 1 - int_of_float (clamp y *. float_of_int (height - 1)) in
      grid.(row).(col) <- ch)
    points;
  Format.fprintf fmt "%s ^@." ylabel;
  Array.iter
    (fun row -> Format.fprintf fmt "  |%s@." (String.init width (Array.get row)))
    grid;
  Format.fprintf fmt "  +%s> %s@." (String.make width '-') xlabel

(* Phase-attribution rendering of a Profkit profile — the table behind
   [bench perf --profile] and [cbnet report profile].  Shares the
   plain [table] renderer so the output diffs cleanly in CI logs. *)
let profile ?(title = "CBN phase attribution") p fmt =
  let open Profkit in
  let wall = Profile.wall_us p in
  let rows =
    List.map
      (fun phase ->
        let h = Profile.hist p phase in
        let total = Profile.total_us p phase in
        [
          Profile.phase_name phase;
          Printf.sprintf "%.1f" (total /. 1000.0);
          Printf.sprintf "%.1f%%"
            (if wall > 0.0 then 100.0 *. total /. wall else 0.0);
          Printf.sprintf "%.1f" (Histogram.p50 h);
          Printf.sprintf "%.1f" (Histogram.p95 h);
          Printf.sprintf "%.1f" (Histogram.p99 h);
          Printf.sprintf "%.1f" (Histogram.max h);
        ])
      Profile.phases
  in
  table ~title
    ~headers:
      [ "phase"; "total_ms"; "share"; "p50_us"; "p95_us"; "p99_us"; "max_us" ]
    rows fmt;
  let wh = Profile.wall_hist p in
  Format.fprintf fmt
    "rounds=%d round wall: total=%.1fms p50=%.1fus p95=%.1fus p99=%.1fus \
     max=%.1fus@."
    (Profile.rounds p) (wall /. 1000.0) (Histogram.p50 wh) (Histogram.p95 wh)
    (Histogram.p99 wh) (Histogram.max wh);
  table ~title:"work counters" ~headers:[ "counter"; "value" ]
    (List.map (fun (name, v) -> [ name; string_of_int v ]) (Profile.counters p))
    fmt

let profile_rows ~workload p =
  let open Profkit in
  let quantiles h =
    [
      ("round_p50_us", Histogram.p50 h);
      ("round_p95_us", Histogram.p95 h);
      ("round_p99_us", Histogram.p99 h);
      ("round_max_us", Histogram.max h);
    ]
  in
  let wall = Profile.wall_us p in
  let key = [ ("workload", Bench_row.Str workload) ] in
  {
    Bench_row.key;
    metrics =
      (("rounds", float_of_int (Profile.rounds p)) :: ("wall_us", wall)
       :: quantiles (Profile.wall_hist p))
      @ List.map (fun (k, v) -> (k, float_of_int v)) (Profile.counters p);
  }
  :: List.map
       (fun phase ->
         let total = Profile.total_us p phase in
         {
           Bench_row.key =
             key @ [ ("phase", Bench_row.Str (Profile.phase_name phase)) ];
           metrics =
             ("total_us", total)
             :: ("share", if wall > 0.0 then total /. wall else 0.0)
             :: quantiles (Profile.hist p phase);
         })
       Profile.phases

let float_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then
    let i = int_of_float v in
    if abs i >= 100000 then Printf.sprintf "%d" i else string_of_int i
  else if Float.abs v < 10.0 then Printf.sprintf "%.3f" v
  else Printf.sprintf "%.1f" v
