type t = { cdf : float array; pmf : float array }

let create ~alpha ~k =
  if alpha < 0.0 then invalid_arg "Zipf.create: negative alpha";
  if k <= 0 then invalid_arg "Zipf.create: k must be positive";
  let pmf = Array.init k (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) alpha) in
  let total = Array.fold_left ( +. ) 0.0 pmf in
  let cdf = Array.make k 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      pmf.(i) <- w /. total;
      acc := !acc +. pmf.(i);
      cdf.(i) <- !acc)
    pmf;
  cdf.(k - 1) <- 1.0;
  { cdf; pmf }

let sample t rng =
  let u = Simkit.Rng.float rng 1.0 in
  (* Smallest index with cdf.(i) >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let probability t i = t.pmf.(i)
