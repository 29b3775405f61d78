type t = {
  n : int;
  shards : int;
  base : int;  (* n / shards: the narrow shard width. *)
  rem : int;  (* n mod shards: how many leading shards are one wider. *)
}

let create ~n ~shards =
  if n < 2 then invalid_arg "Forest.Directory.create: n must be >= 2";
  if shards < 1 then invalid_arg "Forest.Directory.create: shards must be >= 1";
  if 2 * shards > n then
    invalid_arg
      (Printf.sprintf
         "Forest.Directory.create: %d shards over n = %d leaves a shard with \
          fewer than 2 keys"
         shards n);
  { n; shards; base = n / shards; rem = n mod shards }

let n t = t.n
let shards t = t.shards
let size t s = t.base + if s < t.rem then 1 else 0

let lo t s =
  if s < t.rem then s * (t.base + 1)
  else (t.rem * (t.base + 1)) + ((s - t.rem) * t.base)

let shard_of t g =
  (* The first [rem] shards are (base + 1) wide and cover the prefix
     [0, rem * (base + 1)); the rest are [base] wide. *)
  let wide = t.rem * (t.base + 1) in
  if g < wide then g / (t.base + 1) else t.rem + ((g - wide) / t.base)

let local_of t g = g - lo t (shard_of t g)
