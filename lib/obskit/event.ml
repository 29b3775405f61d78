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
  | Conflict of { round : int; msg : int; kind : conflict }
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

let conflict_to_string = function Pause -> "pause" | Bypass -> "bypass"

let fault_to_string = function
  | Duplicate -> "duplicate"
  | Delay -> "delay"
  | Abort -> "abort"

let pool_phase_to_string = function
  | Enqueue -> "enqueue"
  | Start -> "start"
  | Done -> "done"

let span_phase_to_string = function Begin -> "begin" | End -> "end"

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

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON numbers must be finite; ΔΦ and Φ always are, but a guard keeps
   a pathological value from producing an unparseable line. *)
let num x = if Float.is_finite x then Printf.sprintf "%.3f" x else "null"
let bool b = if b then "true" else "false"

let payload_fields buf = function
  | Round_begin { round; active; live_data } ->
      Printf.bprintf buf "\"round\":%d,\"active\":%d,\"live_data\":%d" round
        active live_data
  | Step_planned { round; msg; kind; rotate; delta_phi } ->
      Printf.bprintf buf
        "\"round\":%d,\"msg\":%d,\"kind\":\"%s\",\"rotate\":%s,\"delta_phi\":%s"
        round msg (escape kind) (bool rotate) (num delta_phi)
  | Cluster_claimed { round; msg; cluster; rotate } ->
      Printf.bprintf buf "\"round\":%d,\"msg\":%d,\"rotate\":%s,\"cluster\":[%s]"
        round msg (bool rotate)
        (String.concat "," (List.map string_of_int cluster))
  | Conflict { round; msg; kind } ->
      Printf.bprintf buf "\"round\":%d,\"msg\":%d,\"kind\":\"%s\"" round msg
        (conflict_to_string kind)
  | Rotation { round; msg; node; count; delta_phi } ->
      Printf.bprintf buf
        "\"round\":%d,\"msg\":%d,\"node\":%d,\"count\":%d,\"delta_phi\":%s"
        round msg node count (num delta_phi)
  | Phi_sample { round; phi } ->
      Printf.bprintf buf "\"round\":%d,\"phi\":%s" round (num phi)
  | Msg_delivered { round; msg; data; birth; hops; rotations } ->
      Printf.bprintf buf
        "\"round\":%d,\"msg\":%d,\"data\":%s,\"birth\":%d,\"hops\":%d,\"rotations\":%d"
        round msg (bool data) birth hops rotations
  | Pool_task { task; phase; queue_depth; elapsed_us } ->
      Printf.bprintf buf
        "\"task\":%d,\"phase\":\"%s\",\"queue_depth\":%d,\"elapsed_us\":%s" task
        (pool_phase_to_string phase)
        queue_depth (num elapsed_us)
  | Span { name; phase } ->
      Printf.bprintf buf "\"name\":\"%s\",\"phase\":\"%s\"" (escape name)
        (span_phase_to_string phase)
  | Fault_injected { round; kind; node; msg } ->
      Printf.bprintf buf "\"round\":%d,\"kind\":\"%s\",\"node\":%d,\"msg\":%d"
        round (fault_to_string kind) node msg
  | Node_down { round; node; until } ->
      Printf.bprintf buf "\"round\":%d,\"node\":%d,\"until\":%d" round node
        until
  | Node_up { round; node } ->
      Printf.bprintf buf "\"round\":%d,\"node\":%d" round node
  | Msg_lost { round; msg; node } ->
      Printf.bprintf buf "\"round\":%d,\"msg\":%d,\"node\":%d" round msg node
  | Repair_begin { round; node } ->
      Printf.bprintf buf "\"round\":%d,\"node\":%d" round node
  | Repair_done { round; node } ->
      Printf.bprintf buf "\"round\":%d,\"node\":%d" round node

let to_json t =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"ts_us\":%.3f,\"domain\":%d,\"type\":\"%s\"," t.ts_us
    t.domain (name t.payload);
  payload_fields buf t.payload;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_json t)
