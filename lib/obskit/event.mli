(** Structured telemetry events.

    Every event carries a wall-clock timestamp (stamped at emission by
    {!Sink.record}) and the integer id of the domain that emitted it,
    so exporters can lay events out on one track per domain.  The
    payload is a closed variant: adding a case is a compile-time-checked
    change to every exporter and recorder.

    Logical simulation time (the [round] fields) is carried inside the
    payloads; [ts_us] is physical time.  Both clocks matter: rounds for
    the paper's cost model, wall time for profiling the simulator
    itself. *)

type conflict = Pause | Bypass
(** The two conflict outcomes of Sec. VII: the losing message pauses
    when the winning step routed, and is bypassed when it rotated. *)

type pool_phase = Enqueue | Start | Done
type span_phase = Begin | End

type fault = Duplicate | Delay | Abort
(** [Faultkit] injections that happen {e to} a message at step-commit
    time; node crashes and message losses have their own payloads
    ([Node_down]/[Node_up], [Msg_lost]). *)

type payload =
  | Round_begin of { round : int; active : int; live_data : int }
      (** A scheduler round starts with [active] undelivered messages
          (data + updates) of which [live_data] are data messages. *)
  | Step_planned of {
      round : int;
      msg : int;
      kind : string;  (** {!Cbnet.Step.kind_to_string} of the plan. *)
      rotate : bool;
      delta_phi : float;
    }
      (** Algorithm 1 evaluated a candidate step: [rotate] tells
          whether ΔΦ cleared the -δ threshold. *)
  | Cluster_claimed of {
      round : int;
      msg : int;
      cluster : int list;
      rotate : bool;
    }  (** The step's cluster (Def. 6) was locked for this round. *)
  | Conflict of {
      round : int;
      msg : int;
      kind : conflict;
      count : int;
          (** Conflicts charged: 1 for a message's own turn, or the
              members of a parked shape class charged in one bulk
              charge, [msg] being the first of them. *)
      node : int;
          (** The claimed cluster node that decided the verdict: the
              first claimed node of the step's cluster. *)
    }
      (** [count] messages lost a cluster conflict in [round]. *)
  | Rotation of {
      round : int;
      msg : int;
      node : int;
      count : int;  (** Elementary rotations (1, or 2 for zig-zag). *)
      delta_phi : float;
    }
  | Phi_sample of { round : int; phi : float }
      (** Global potential Φ(T), sampled once per round (traced runs
          only: computing Φ is O(n)). *)
  | Msg_delivered of {
      round : int;
      msg : int;
      data : bool;  (** [false] for a weight-update control message. *)
      birth : int;
      hops : int;
      rotations : int;
    }
  | Pool_task of {
      task : int;
      phase : pool_phase;
      queue_depth : int;
      elapsed_us : float;  (** Task wall time; meaningful at [Done]. *)
    }
  | Span of { name : string; phase : span_phase }
      (** Experiment phases ([cell:...], [seed:...]); properly nested
          per emitting domain. *)
  | Fault_injected of { round : int; kind : fault; node : int; msg : int }
      (** A plan clause fired on a committing step: the message was
          duplicated, put to sleep, or its rotation was aborted
          mid-flight (triggering repair). *)
  | Node_down of { round : int; node : int; until : int }
      (** A crash window opened: the node is excluded from cluster
          claiming until round [until]. *)
  | Node_up of { round : int; node : int }  (** A crash window closed. *)
  | Msg_lost of { round : int; msg : int; node : int }
      (** The message was dropped crossing an edge at [node] and
          re-armed at its source with its original birth. *)
  | Repair_begin of { round : int; node : int }
      (** Local repair of a torn rotation around [node] started. *)
  | Repair_done of { round : int; node : int }
      (** Repair finished; [Bstnet.Check.all] holds again. *)

type t = { ts_us : float; domain : int; payload : payload }

val fault_to_string : fault -> string

(* lint: allow unused-export -- the trace-diff tests name payload kinds with it *)
val name : payload -> string
(** Constructor name in snake case ("round_begin", "pool_task", ...). *)
