(** The per-turn message protocol shared by the sequential and the
    concurrent executors: LCA detection, weight increments along the
    travelled path, spawning of the weight-update control message, and
    delivery detection.

    Weight bookkeeping (Sec. IV/V): while climbing, every node the
    message crosses gains +1 (it is an ancestor of the source on the
    travelled path); at the LCA the message spawns a root-bound update
    message that adds +2 to every node it crosses (covering both
    endpoints' shared ancestors); while descending, every node crossed
    gains +1.  Under rotations the realized paths are the ones actually
    travelled — after quiescence the root's weight equals exactly [2m]
    (every update terminates at the current root), which Theorem 1
    relies on, while individual counters are the travel-path
    approximation inherent to the distributed protocol. *)

type spawn = origin:int -> first_increment:int -> unit
(** Callback invoked when a message reaches its LCA and must emit a
    weight-update message: the executor creates the control message at
    [origin], whose own weight must immediately grow by
    [first_increment] (2 in general; 1 when the origin already received
    this message's climb increment). *)

type turn = Delivered | Plan of Step.t

val born : Bstnet.Topology.t -> spawn:spawn -> Message.t -> unit
(** One-time bookkeeping when a message enters the network at its
    source: climb increment, or immediate LCA handling when the
    destination lies in the source's subtree (including self-messages,
    which deliver on the spot). *)

val begin_turn_probe :
  Step.t -> Bstnet.Topology.t -> spawn:spawn -> Message.t -> bool
(** Start a turn for an undelivered message: re-evaluate the direction
    at the current node (it may have changed through bypasses or the
    message's own in-place rotations), flip phase / spawn the update
    when the LCA has been reached, and fill the buffer with the step's
    shape, a {!Step.probe_up_into}-style core cluster and anchor
    without [ΔΦ] (returning [true]) — or return [false] when the
    message is delivered instead.  Safe to call repeatedly for a
    message paused by conflicts; allocation-free.  The concurrent
    executor uses this to pre-check cluster conflicts and only pay for
    {!Step.resolve_into} on turns that can actually act. *)

val begin_turn : Config.t -> Bstnet.Topology.t -> spawn:spawn -> Message.t -> turn
(** {!begin_turn_probe} and {!Step.resolve_into} into a fresh buffer
    per plan — the allocating interface, used by the sequential
    executor and by the test suite's list-based reference executor. *)

val apply_step : Bstnet.Topology.t -> spawn:spawn -> Message.t -> Step.t -> unit
(** Commit a plan: execute its rotation (if any) with the weight
    deposits ordered correctly around it, advance the message, account
    hops/rotations/steps, apply the increments of the crossed nodes,
    flip phase at a crossed LCA, and mark delivery when the
    destination (or the root, for updates) is reached. *)
