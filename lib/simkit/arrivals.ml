let poisson_discrete rng ~lambda ~count =
  if count < 0 then invalid_arg "Arrivals.poisson_discrete: negative count";
  let times = Array.make count 0 in
  let t = ref 0 in
  for i = 0 to count - 1 do
    t := !t + max 1 (Rng.poisson rng lambda);
    times.(i) <- !t
  done;
  times
