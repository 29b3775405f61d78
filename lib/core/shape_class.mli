(** Shape classes: the parked messages of {!Concurrent}'s round walk,
    which every run takes, traced or not, with a fault plan or without.

    A message whose turn ends in a pause or bypass has not acted, so
    while the structure versions of its probed core nodes hold, a
    re-probe would reproduce its cached step shape verbatim and its
    next turn is decided by the conflict pre-check alone.  A message
    that pauses off its cached shape (its probe reproduced the shape
    of its previous turn) is {e parked}: it leaves the walk and joins
    the shape class of all parked messages with the same cached
    [(c0, c1, c2, anchor)] (and versions), kept in (birth, id)
    order.

    Each round the walk visits a class at the position of its earliest
    unvisited member (the frontier), in merged priority order with the
    active messages ({!top}/{!frontier}).  The classes are kept sorted
    by frontier ({!end_round}), so a first visit is a step along an
    array; only a class re-entering mid-round at a later frontier
    ({!skip}, {!leave}, a split) goes through a heap merged with it.
    One {!verdict} there either charges every member from the frontier
    on its pause or bypass in bulk ({!charge}), or hands the frontier
    to a normal turn ({!leave} or {!skip}).  Only commits change claims
    or versions within a round, so a bulk charge stands until a commit
    ranked after the frontier touches a class node; {!after_commit}
    then splits the class at the committer, and the members after it
    are re-checked at their own position.  The outcome of every member
    is therefore exactly what its own turn would produce at its
    (birth, id) position.

    Bulk charges cost O(1) per class: a class keeps cumulative pause
    and bypass counts, and while a message is parked its own
    [pauses]/[bypasses] fields hold its count {e minus} the class's.
    The difference is settled when the member leaves and by {!flush}.
    Telemetry follows the charges: a bulk charge is one [Conflict]
    event whose [count] is the number of members it charged, emitted
    when the charge closes.

    All state is preallocated and grows by doubling; the per-node state
    is one [int] array of size n. *)

type t

val create :
  n:int -> Arena.t -> Profkit.Profile.t option -> Obskit.Sink.t -> t
(** An empty set for a tree of [n] nodes whose messages live in the
    arena.  Class checks count as [Profile.shape_hit], bulk charges as
    [Profile.charge_parked] and go to the sink as [Conflict] events. *)

val no_verdict : int
(** {!verdict} result when the shape alone cannot decide the turn: no
    core node is claimed, or only the anchor's claim could change the
    outcome, so the step must be resolved (ΔΦ) and contended. *)

val stale : int
(** {!class_verdict} result when a core node's structure version moved:
    the members must re-probe. *)

val verdict :
  int array -> round:int -> c0:int -> c1:int -> c2:int -> anchor:int -> int
(** The ΔΦ-free conflict pre-check on a probed step shape against the
    round's claim words: a verdict [(hit lsl 1) lor bit], where [hit]
    is the first claimed core node and [bit] is [0] for a pause, [1]
    for a bypass; or {!no_verdict}.  The anchor joins the cluster (in
    front) only if the step rotates; with the anchor unclaimed, or
    claimed by the same kind of winner as [hit], the verdict is the
    same either way. *)

val record_conflict :
  Obskit.Sink.t -> round:int -> msg:int -> count:int -> int -> unit
(** Emit one [Conflict] event, if the sink is enabled: [count]
    messages, from message [msg] on, lost on a {!verdict}. *)

val stage : t -> Message.t -> unit
(** Park a message whose turn just ended in a conflict off its cached
    shape.  It joins its class in {!end_round}, so it is not visited
    again this round. *)

val top : t -> int
(** The class whose frontier comes first in priority order among those
    still to be visited this round (presorted or re-entered), or [-1]. *)

val top_before : t -> Message.t -> bool
(** Whether {!top}'s frontier comes before the message in priority
    order. *)

val frontier : t -> int -> Message.t
(** The class's frontier member. *)

val pop : t -> int
(** Take {!top} off the round's visit order and return it, to process
    its frontier. *)

val class_verdict :
  t -> Bstnet.Topology.t -> int array -> round:int -> int -> int
(** {!stale}, or the {!verdict} of the class's cached shape (counted as
    one shape-cache hit). *)

val charge : t -> int -> verdict:int -> unit
(** Charge every member from the frontier on the pause or bypass of a
    {!verdict} for this round, until a commit splits it. *)

val leave : t -> int -> unit
(** The frontier leaves the class (its counts settled) to take a normal
    turn; the class's next member becomes its frontier. *)

val skip : t -> int -> unit
(** The frontier took its own turn and stays parked; the next member
    becomes the frontier. *)

val after_commit :
  t ->
  Bstnet.Topology.t ->
  int array ->
  round:int ->
  Step.t ->
  Message.t ->
  unit
(** A step was just committed by the given message: re-check every
    bulk-charged class the commit touched (a claimed cluster node, or
    a node whose structure version it may have bumped) and, where the
    verdict changed, close the charge at the committer and put the
    members after it back into this round's visit order. *)

val end_round : t -> round:int -> unit
(** Close the round: settle open charges, join the staged messages to
    their classes, free empty classes and sort the classes by frontier
    for the next round (an insertion sort of last round's order).  A
    staged message whose shape went stale after its turn joins a class
    of its stale versions, which the next frontier check sends back to
    re-probe. *)

val flush : t -> unit
(** Settle every parked member's [pauses]/[bypasses] to its true count,
    so that statistics can be read between rounds. *)
