type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

(* Non-negative int from the top 62 bits (OCaml ints are 63-bit). *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits62 t in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then go () else v
  in
  go ()

let float t bound =
  (* 53 random bits into [0, 1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let normal t ~mean ~std =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (std *. z)

let poisson t lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: negative lambda";
  let threshold = exp (-.lambda) in
  let rec go k p =
    let p = p *. float t 1.0 in
    if p <= threshold then k else go (k + 1) p
  in
  go 0 1.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

