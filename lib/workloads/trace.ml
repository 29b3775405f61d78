type t = {
  name : string;
  n : int;
  requests : (int * int) array;
  births : int array;
}

let validate ~n requests =
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg "Trace.make: endpoint out of range")
    requests

let make ~name ~n requests =
  if n <= 0 then invalid_arg "Trace.make: n must be positive";
  validate ~n requests;
  { name; n; requests; births = Array.init (Array.length requests) (fun i -> i) }

let length t = Array.length t.requests

let with_births t births =
  if Array.length births <> length t then
    invalid_arg "Trace.with_births: length mismatch";
  let sorted = ref true in
  for i = 1 to Array.length births - 1 do
    if births.(i) < births.(i - 1) then sorted := false
  done;
  if not !sorted then invalid_arg "Trace.with_births: births not sorted";
  { t with births }

let with_poisson_births rng ~lambda t =
  with_births t (Simkit.Arrivals.poisson_discrete rng ~lambda ~count:(length t))

let to_runs t =
  Array.init (length t) (fun i ->
      let s, d = t.requests.(i) in
      (t.births.(i), s, d))

let shuffled rng t =
  let requests = Array.copy t.requests in
  Simkit.Rng.shuffle rng requests;
  { t with name = t.name ^ "-shuffled"; requests }

let uniform_like rng t =
  let requests =
    Array.init (length t) (fun _ ->
        (Simkit.Rng.int rng t.n, Simkit.Rng.int rng t.n))
  in
  { t with name = t.name ^ "-uniform"; requests }

let save_csv t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "birth,src,dst\n";
      Array.iteri
        (fun i (s, d) -> Printf.fprintf oc "%d,%d,%d\n" t.births.(i) s d)
        t.requests)

let pp_summary fmt t =
  Format.fprintf fmt "%s: n=%d m=%d span=[%d..%d]" t.name t.n (length t)
    (if length t = 0 then 0 else t.births.(0))
    (if length t = 0 then 0 else t.births.(length t - 1))
