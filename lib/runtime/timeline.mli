(** Adaptation timelines: how a self-adjusting network's per-message
    cost evolves as it learns the demand — the dynamics behind the
    aggregate bars of Fig. 3.

    A trace is served in windows of fixed size on one evolving
    topology; per window we record the amortized routing cost, the
    rotations spent, and the network potential Φ, giving the
    convergence curve (and, on drifting demand, the re-convergence
    transient). *)

type point = {
  window_index : int;
  first_message : int;
  messages : int;
  amortized_routing : float;  (** Routing cost per message in this window. *)
  rotations : int;
  phi : float;  (** Potential Φ(T) at the window's end. *)
  mean_distance : float;  (** Mean tree distance of this window's pairs, measured on the topology at the window's end. *)
}

val sequential_cbnet : window:int -> Workloads.Trace.t -> point list
(** Serve the trace with sequential CBNet in windows of [window]
    messages on a balanced initial topology. *)

val pp : Format.formatter -> point list -> unit
(** Table plus a sparkline of the amortized routing column. *)
