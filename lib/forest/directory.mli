(** The forest's top-level directory: a static map from the global key
    space [0, n) to [shards] contiguous, near-equal ranges.

    Shard [s] owns the half-open global range [[lo s, lo s + size s)];
    the first [n mod shards] shards are one key wider than the rest,
    so any two shard sizes differ by at most one.  Every query is O(1)
    integer arithmetic on two precomputed fields — no per-key table —
    which keeps the router's per-message dispatch allocation-free and
    branch-cheap at any n. *)

type t

val create : n:int -> shards:int -> t
(** [create ~n ~shards] partitions [0, n) into [shards] ranges.

    @raise Invalid_argument if [n < 2], [shards < 1], or
    [2 * shards > n] (every shard must own at least two keys: a
    one-node tree has no topology to adjust). *)

val n : t -> int
(** Size of the global key space. *)

val shards : t -> int
(** Number of shards k. *)

val size : t -> int -> int
(** [size t s] is the number of keys shard [s] owns. *)

val shard_of : t -> int -> int
(** [shard_of t g] is the shard owning global key [g].  O(1); the
    caller guarantees [0 <= g < n t]. *)

val local_of : t -> int -> int
(** [local_of t g] is [g]'s key within its owning shard's local key
    space [[0, size (shard_of t g))]. *)
