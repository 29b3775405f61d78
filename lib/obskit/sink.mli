(** Event sinks.

    A sink is where instrumented code sends {!Event.t} values.  The
    {!null} sink is a bare constant constructor: guarded call sites
    ([if Sink.enabled sink then Sink.record sink (fun () -> ...)])
    compile to a load-and-branch and allocate nothing, which is what
    keeps untraced hot paths within noise of uninstrumented code.

    All built-in sinks are safe to share across domains: {!stream} and
    {!Ring} serialize delivery with a mutex, so a consumer callback
    never runs concurrently with itself. *)

type t

val null : t
(** Discards everything; {!enabled} is [false]. *)

val enabled : t -> bool
(** [false] only for {!null}.  Instrumented code must test this before
    constructing an event (or any argument of it), so the null sink
    costs one branch and zero allocation. *)

(* lint: allow unused-export -- the sink tests emit events by hand *)
val emit : t -> Event.t -> unit
(** Deliver an already-built event.  No-op on {!null}. *)

val record : t -> (unit -> Event.payload) -> unit
(** Stamp {!Clock.now_us} and the calling domain's id onto the payload
    and {!emit} it.  The thunk is not called on {!null}, but callers
    should still guard with {!enabled} to avoid allocating the
    closure. *)

val stream : (Event.t -> unit) -> t
(** Deliver every event to a callback, serialized by a private mutex
    (events from concurrent domains arrive one at a time, in emission
    order as seen by the mutex). *)

val tee : t list -> t
(** Deliver to every enabled sink in list order.  [tee []] and a list
    of null sinks collapse to {!null}, preserving the zero-cost
    guard. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span sink name f] emits [Span Begin], runs [f], and emits
    [Span End] (also on exception).  On {!null} it just runs [f].
    Callers that build [name] with [Printf] should guard with
    {!enabled} to keep the untraced path allocation-free. *)

(** Bounded in-memory buffer keeping the {e most recent} [capacity]
    events; older events are dropped (and counted) rather than growing
    without bound on long runs. *)
module Ring : sig
  type buf

  val create : capacity:int -> buf
  (** @raise Invalid_argument if [capacity < 1]. *)

  val sink : buf -> t
  val length : buf -> int
  val dropped : buf -> int
  (** Events overwritten so far (total emitted - retained). *)

  val contents : buf -> Event.t list
  (** Retained events, oldest first. *)
end
