type t = {
  n : int;
  w : int array;  (* symmetric pair weights, row-major n*n, zero diagonal *)
  prefix : int array;  (* (n+1)*(n+1) 2-D prefix sums of w *)
  degree : int array;
  degree_prefix : int array;  (* degree_prefix.(i) = Σ_{u<i} degree.(u) *)
  src_count : int array;
  dst_count : int array;
  messages : int;
}

let of_trace ~n trace =
  if n <= 0 then invalid_arg "Demand.of_trace: n must be positive";
  let w = Array.make (n * n) 0 in
  let src_count = Array.make n 0 in
  let dst_count = Array.make n 0 in
  Array.iter
    (fun (_, s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg "Demand.of_trace: endpoint out of range";
      src_count.(s) <- src_count.(s) + 1;
      dst_count.(d) <- dst_count.(d) + 1;
      if s <> d then begin
        w.((s * n) + d) <- w.((s * n) + d) + 1;
        w.((d * n) + s) <- w.((d * n) + s) + 1
      end)
    trace;
  let degree = Array.make n 0 in
  for u = 0 to n - 1 do
    let acc = ref 0 in
    for v = 0 to n - 1 do
      acc := !acc + w.((u * n) + v)
    done;
    degree.(u) <- !acc
  done;
  let stride = n + 1 in
  let prefix = Array.make (stride * stride) 0 in
  for i = 1 to n do
    for j = 1 to n do
      prefix.((i * stride) + j) <-
        w.(((i - 1) * n) + (j - 1))
        + prefix.(((i - 1) * stride) + j)
        + prefix.((i * stride) + j - 1)
        - prefix.(((i - 1) * stride) + j - 1)
    done
  done;
  let degree_prefix = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    degree_prefix.(u + 1) <- degree_prefix.(u) + degree.(u)
  done;
  {
    n;
    w;
    prefix;
    degree;
    degree_prefix;
    src_count;
    dst_count;
    messages = Array.length trace;
  }

let n t = t.n

(* Σ_{u,v ∈ [lo..hi]} w(u,v), ordered pairs. *)
let block_sum t ~lo ~hi =
  let s = t.n + 1 in
  let a = lo and b = hi + 1 in
  t.prefix.((b * s) + b)
  - t.prefix.((a * s) + b)
  - t.prefix.((b * s) + a)
  + t.prefix.((a * s) + a)

let cut_cost t ~lo ~hi =
  if lo > hi then 0
  else t.degree_prefix.(hi + 1) - t.degree_prefix.(lo) - block_sum t ~lo ~hi

let routing_cost t topo =
  let acc = ref 0 in
  for u = 0 to t.n - 1 do
    for v = u + 1 to t.n - 1 do
      let w = t.w.((u * t.n) + v) in
      if w > 0 then acc := !acc + (w * Bstnet.Topology.distance topo u v)
    done
  done;
  !acc

let entropy counts total =
  if total = 0 then 0.0
  else begin
    let h = ref 0.0 in
    Array.iter
      (fun c ->
        if c > 0 then begin
          let p = float_of_int c /. float_of_int total in
          h := !h -. (p *. Float.log2 p)
        end)
      counts;
    !h
  end

let source_entropy t = entropy t.src_count t.messages
let destination_entropy t = entropy t.dst_count t.messages
