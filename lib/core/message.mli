(** In-flight message state.

    CBNet is message-oriented: a data message travels from its source
    bottom-up to the LCA with its destination, then top-down; at the
    LCA it spawns a small root-bound weight-update control message
    (Algorithm 1, lines 2-3) that carries no data but is still subject
    to rotation steps and is included in the work cost. *)

type kind = Data | Weight_update

type phase =
  | Climbing  (** Heading for the LCA (or the root, for an update). *)
  | Descending  (** Past the LCA, heading for the destination. *)

type t = {
  mutable id : int;  (** Unique; breaks priority ties deterministically. *)
  mutable kind : kind;
  mutable src : int;
  mutable dst : int;
      (** [Bstnet.Topology.nil] for weight updates (root-bound). *)
  mutable birth : int;
      (** Time slot of generation; the priority of Sec. VII. *)
  mutable current : int;
  mutable phase : phase;
  mutable up_credit : int;
      (** Last node that received this message's climb increment, or
          [nil]; decides whether an LCA discovered in place still needs
          +1 or the full +2. *)
  mutable update_spawned : bool;
      (** A message spawns at most one weight update, even if a bypass
          forces it to re-climb to a fresh LCA. *)
  mutable delivered : bool;
  mutable end_time : int;
  mutable hops : int;  (** Forwarding operations performed (routing cost). *)
  mutable rotations : int;  (** Elementary rotations performed. *)
  mutable steps : int;
  mutable pauses : int;  (** Conflicts suffered where the winner routed. *)
  mutable bypasses : int;  (** Conflicts suffered where the winner rotated. *)
  mutable asleep_until : int;
      (** First round the message may act again after a fault-injected
          delay ([Faultkit]); 0 = not sleeping.  Untouched on
          fault-free runs. *)
  mutable shape_c0 : int;
  mutable shape_c1 : int;
  mutable shape_c2 : int;
  mutable shape_anchor : int;
  mutable shape_v0 : int;
  mutable shape_v1 : int;
  mutable shape_v2 : int;
      (** Step-shape cache owned by [Concurrent]'s round walk: the
          core cluster nodes + rotation anchor ([nil]-padded) probed by
          the message's last turn, and the {!Bstnet.Topology.version}
          stamps of the core nodes at probe time.  While every stamped
          version is unchanged and the message has not acted,
          re-probing would reproduce exactly this shape; a message
          that pauses off it is parked in the [Shape_class] keyed by
          this cache. *)
}

val data : id:int -> src:int -> dst:int -> birth:int -> t
val weight_update : id:int -> origin:int -> birth:int -> t

val reinit :
  t -> id:int -> kind:kind -> src:int -> dst:int -> birth:int -> unit
(** Reset a record to the state [data]/[weight_update] would build,
    for slot reuse in {!Arena}: a released record takes on a fresh
    message.  The identity fields are mutable only to support this;
    once a message is in flight they must not change. *)

val is_data : t -> bool
val is_update : t -> bool
val is_climbing : t -> bool

val is_descending : t -> bool
(** Monomorphic [kind]/[phase] tests; callers use these instead of
    structural [=] on the variants (see the [no-poly-compare] lint
    rule). *)

val priority_compare : t -> t -> int
(** Earlier birth first, then smaller id — the total order used for
    the prioritization rule of Sec. VII-A. *)
