type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
  mutable samples : float list;  (* newest first, for percentiles *)
}

let create () =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    min = infinity;
    max = neg_infinity;
    total = 0.0;
    samples = [];
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x;
  t.samples <- x :: t.samples

let mean t = if t.n = 0 then 0.0 else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let std t = sqrt (variance t)
let min t = if t.n = 0 then 0.0 else t.min
let max t = if t.n = 0 then 0.0 else t.max

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  total : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Linear interpolation between the order statistics of [sorted]. *)
let interpolate sorted p =
  let rank = p /. 100.0 *. float_of_int (Array.length sorted - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentile data p =
  let n = Array.length data in
  if n = 0 then invalid_arg "Stats.percentile: empty data";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  interpolate sorted p

let summary (acc : t) =
  (* Percentiles need the retained samples; a single sorted copy
     serves all three order statistics. *)
  let pct =
    if acc.n = 0 then fun _ -> 0.0
    else begin
      let data = Array.of_list acc.samples in
      Array.sort compare data;
      interpolate data
    end
  in
  {
    n = acc.n;
    mean = mean acc;
    std = std acc;
    min = min acc;
    max = max acc;
    total = acc.total;
    p50 = pct 50.0;
    p95 = pct 95.0;
    p99 = pct 99.0;
  }

