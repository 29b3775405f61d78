(** Array-backed stable priority buffer for round-synchronous
    executors.

    The element set of a round loop changes in a rhythm that ordinary
    heaps serve poorly: a small batch of newcomers arrives between
    rounds, every round then visits {e all} elements in priority order
    and drops the finished ones.  This structure keeps the elements in
    one sorted array and the pending newcomers in a second small sorted
    array; [commit] merges the two with a single backward pass and
    [iter_filter] visits and compacts in place — no per-round list
    allocation, no re-sorting of the already-sorted bulk.

    Elements may also leave through the visit and come back later
    through [stage]: the concurrent executor keeps only its active
    messages here, parks paused ones in shape classes, and stages a
    parked message again once it acts.

    Ordering is {e stable}: elements that compare equal are visited in
    insertion order, with previously-committed elements before newly
    staged ones.  With a total order (unique keys) the visit order is
    exactly the order [List.merge]-based code would produce. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> ('a -> 'a -> int) -> 'a t
(** [create ~dummy cmp] — an empty buffer ordered by [cmp] (smallest
    first).  [dummy] fills unused slots so stale elements are not
    retained against the GC.  [capacity] (default 64) is a hint; the
    arrays grow by doubling. *)

(* lint: allow unused-export -- test_pqueue's model checks observe it *)
val length : 'a t -> int
(** Committed elements only; staged newcomers are not counted. *)

(* lint: allow unused-export -- test_pqueue's model checks observe it *)
val staged : 'a t -> int
(** Newcomers staged since the last [commit]. *)

val stage : 'a t -> 'a -> unit
(** Add a newcomer to the pending batch.  O(batch) worst case (the
    batch is kept sorted by insertion from the back), O(1) when
    arriving in priority order.  Safe to call from inside an
    [iter_filter] callback: staged elements never join the iteration
    in progress. *)

val commit : 'a t -> unit
(** Merge the staged batch into the committed array (stable backward
    merge, O(length + batch)).  Must not be called from inside
    [iter_filter]. *)

val iter_filter : 'a t -> ('a -> bool) -> unit
(** Visit all committed elements in priority order; keep those for
    which the callback returns [true], dropping the rest.  Retained
    elements are compacted in place (one pass, no allocation) and
    vacated slots are reset to [dummy]. *)

val to_list : 'a t -> 'a list
(** Committed elements in priority order. *)
