let random_distinct_pairs rng ~n ~count =
  let seen = Hashtbl.create (2 * count) in
  let pairs = Array.make count (0, 1) in
  let filled = ref 0 in
  while !filled < count do
    let s = Simkit.Rng.int rng n in
    let d = Simkit.Rng.int rng n in
    if s <> d && not (Hashtbl.mem seen (s, d)) then begin
      Hashtbl.add seen (s, d) ();
      pairs.(!filled) <- (s, d);
      incr filled
    end
  done;
  pairs

let generate ?(n = 1024) ?(m = 10_000) ?(alpha = 2.0) ?(support = 4096) ~seed () =
  if n < 2 then invalid_arg "Skewed.generate: n must be >= 2";
  if support < n then
    invalid_arg
      (Printf.sprintf
         "Skewed.generate: support %d < n %d (the Zipf pair matrix would \
          leave nodes unused; pass a support >= n)"
         support n);
  if support > n * (n - 1) then invalid_arg "Skewed.generate: support too large";
  let rng = Simkit.Rng.create seed in
  let pairs = random_distinct_pairs rng ~n ~count:support in
  let zipf = Zipf.create ~alpha ~k:support in
  let requests =
    Array.init m (fun _ ->
        let rank = Zipf.sample zipf rng in
        pairs.(rank))
  in
  Trace.make ~name:"skewed" ~n requests
