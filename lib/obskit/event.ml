type conflict = Pause | Bypass
type pool_phase = Enqueue | Start | Done
type span_phase = Begin | End
type fault = Duplicate | Delay | Abort

type payload =
  | Round_begin of { round : int; active : int; live_data : int }
  | Step_planned of {
      round : int;
      msg : int;
      kind : string;
      rotate : bool;
      delta_phi : float;
    }
  | Cluster_claimed of {
      round : int;
      msg : int;
      cluster : int list;
      rotate : bool;
    }
  | Conflict of {
      round : int;
      msg : int;
      kind : conflict;
      count : int;
      node : int;
    }
  | Rotation of {
      round : int;
      msg : int;
      node : int;
      count : int;
      delta_phi : float;
    }
  | Phi_sample of { round : int; phi : float }
  | Msg_delivered of {
      round : int;
      msg : int;
      data : bool;
      birth : int;
      hops : int;
      rotations : int;
    }
  | Pool_task of {
      task : int;
      phase : pool_phase;
      queue_depth : int;
      elapsed_us : float;
    }
  | Span of { name : string; phase : span_phase }
  | Fault_injected of { round : int; kind : fault; node : int; msg : int }
  | Node_down of { round : int; node : int; until : int }
  | Node_up of { round : int; node : int }
  | Msg_lost of { round : int; msg : int; node : int }
  | Repair_begin of { round : int; node : int }
  | Repair_done of { round : int; node : int }

type t = { ts_us : float; domain : int; payload : payload }

let fault_to_string = function
  | Duplicate -> "duplicate"
  | Delay -> "delay"
  | Abort -> "abort"

let name = function
  | Round_begin _ -> "round_begin"
  | Step_planned _ -> "step_planned"
  | Cluster_claimed _ -> "cluster_claimed"
  | Conflict _ -> "conflict"
  | Rotation _ -> "rotation"
  | Phi_sample _ -> "phi_sample"
  | Msg_delivered _ -> "msg_delivered"
  | Pool_task _ -> "pool_task"
  | Span _ -> "span"
  | Fault_injected _ -> "fault_injected"
  | Node_down _ -> "node_down"
  | Node_up _ -> "node_up"
  | Msg_lost _ -> "msg_lost"
  | Repair_begin _ -> "repair_begin"
  | Repair_done _ -> "repair_done"
