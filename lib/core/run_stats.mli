(** Aggregate cost accounting of one execution, following the cost
    model of Sec. II (Def. 1-3). *)

type chaos = {
  crashes : int;  (** Node-crash windows opened by the fault plan. *)
  parks : int;
      (** Turns skipped because the acting node or a cluster node was
          down (each charges makespan, never pauses/bypasses). *)
  lost : int;  (** Messages dropped in transit and re-armed at source. *)
  duplicated : int;  (** Data messages duplicated in transit. *)
  delayed : int;  (** Messages put to sleep by a delay fault. *)
  aborted_rotations : int;  (** Rotations torn mid-flight by a fault. *)
  repairs : int;  (** Local repairs run (one per aborted rotation). *)
}
(** Fault-injection tallies (Faultkit); all zero on fault-free runs. *)

val no_chaos : chaos
(** The all-zero tally. *)

type t = {
  messages : int;  (** [m], number of data messages in σ. *)
  routing_hops : int;
      (** Total forwarding operations, data and update messages. *)
  routing_cost : int;
      (** [D(A, T0, σ) = Σ (d_ei + 1)]: hops plus one per data message. *)
  rotations : int;  (** [Σ ρ_i], elementary rotations (updates included). *)
  work : float;  (** [C = D + R · Σ ρ_i]. *)
  makespan : int;  (** [max e_i - min b_i] over data messages (Def. 2). *)
  throughput : float;  (** [m / makespan]. *)
  steps : int;  (** Steps executed (data and update messages). *)
  pauses : int;  (** Routing-vs-routing conflicts (concurrent only). *)
  bypasses : int;  (** Rotation-under-message conflicts (concurrent only). *)
  update_messages : int;  (** Weight-update control messages emitted. *)
  rounds : int;  (** Rounds until full quiescence (updates drained). *)
  chaos : chaos;  (** Fault-injection tallies; {!no_chaos} without faults. *)
}

type tally
(** A running sum of the per-message counts {!of_iter} folds, for an
    executor that recycles delivered messages' records: each message
    is {!count}ed once, when its record is released. *)

val tally : unit -> tally
(** The empty sum. *)

val count : tally -> Message.t -> unit
(** Add one message's counts. *)

val of_iter :
  ?chaos:chaos ->
  ?base:tally ->
  config:Config.t ->
  rounds:int ->
  ((Message.t -> unit) -> unit) ->
  t
(** Fold messages into the aggregate, visiting them through the given
    iterator (e.g. {!Arena.iter_live} partially applied), on top of
    the messages already summed in [base] (left unchanged; default
    empty).  Every accumulation is order-independent, so any visit
    order and any split between [base] and the iterator produce the
    same result.  Data messages contribute to [routing_cost]'s +1 term
    and to the makespan; update messages contribute hops and rotations
    only. *)

val of_messages :
  ?chaos:chaos -> config:Config.t -> rounds:int -> Message.t list -> t
(** {!of_iter} over a list. *)

val pp : Format.formatter -> t -> unit
(** One-line [key=value] rendering.  Every fault-free field is printed
    even when zero — in particular [pauses], [bypasses] and [rounds],
    which are always 0 for sequential executions — so sequential and
    concurrent runs produce the same columns and line up in logs and
    diffs.  The chaos columns are appended only when some fault tally
    is nonzero, keeping fault-free lines byte-identical with
    pre-faultkit output. *)
