(** Message records of the concurrent executor, sized to the messages
    in flight.

    A message — data or weight update — takes a {!Message.t} record
    from a free list when it is created, reinitialized in place, so the
    executor's hot path creates no records while injecting or
    spawning once the free list holds enough of them.  Ids are minted
    0, 1, 2, … in creation order, exactly as an executor minting fresh
    records would number them; an [int] array maps each live id to its
    record's slot.

    A message that finishes is {!retire}d and its record goes back to
    the free list at {!end_round}, once nothing in the round can still
    refer to it.  Before the slot is reused the message's counts fold
    into a {!Run_stats.tally} ({!tally}), and, when asked for, a data
    message's latency is kept in a flat float array indexed by id
    ({!latencies}).  The records in use are therefore bounded by the
    peak number of live messages, not by the trace length. *)

type t

val create : capacity:int -> latencies:bool -> t
(** An empty arena expecting about [capacity] ids over its lifetime;
    the id-indexed arrays grow by doubling beyond that, and records
    are created on demand.  [latencies] keeps the data messages'
    latencies for {!latencies}. *)

val alloc_data : t -> src:int -> dst:int -> birth:int -> Message.t
(** A record for the next id, reinitialized as a data message. *)

val alloc_update : t -> origin:int -> birth:int -> Message.t
(** A record for the next id, reinitialized as a root-bound weight
    update. *)

val get : t -> int -> Message.t
(** [get a id] — the live message with that id.
    @raise Invalid_argument when [id] is not live (never created, or
    released by {!end_round}). *)

val retire : t -> Message.t -> unit
(** The message was delivered this round: record its latency if it is
    a data message and latencies are kept, and release its record at
    {!end_round}.  The caller must not retire a message twice. *)

val end_round : t -> unit
(** Release the records retired since the last call: fold each into
    the {!tally}, unmap its id and put its slot on the free list.  Call
    it once the round's walk is over, when no queue, shape class or
    staged batch refers to a retired message any more. *)

val tally : t -> Run_stats.tally
(** The counts of every released message. *)

val iter_live : t -> (Message.t -> unit) -> unit
(** The messages created and not yet released, in id order. *)

val latencies : t -> float array
(** The latencies (rounds from birth to delivery) of the retired data
    messages, in id order.
    @raise Invalid_argument if the arena was created without
    [latencies]. *)
