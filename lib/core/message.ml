type kind = Data | Weight_update
type phase = Climbing | Descending

type t = {
  mutable id : int;
  mutable kind : kind;
  mutable src : int;
  mutable dst : int;
  mutable birth : int;
  mutable current : int;
  mutable phase : phase;
  mutable up_credit : int;
  mutable update_spawned : bool;
  mutable delivered : bool;
  mutable end_time : int;
  mutable hops : int;
  mutable rotations : int;
  mutable steps : int;
  mutable pauses : int;
  mutable bypasses : int;
  (* First round the message may act again after a fault-injected
     delay (Faultkit); 0 = not sleeping.  Untouched on fault-free
     runs. *)
  mutable asleep_until : int;
  (* Step-shape cache for the concurrent executor's round walk: the
     last probed core cluster + anchor and the structure versions of
     the core nodes at probe time (see Bstnet.Topology.version); the
     key of the shape class a paused message is parked in. *)
  mutable shape_c0 : int;
  mutable shape_c1 : int;
  mutable shape_c2 : int;
  mutable shape_anchor : int;
  mutable shape_v0 : int;
  mutable shape_v1 : int;
  mutable shape_v2 : int;
}

let make ~id ~kind ~src ~dst ~birth =
  {
    id;
    kind;
    src;
    dst;
    birth;
    current = src;
    phase = Climbing;
    up_credit = Bstnet.Topology.nil;
    update_spawned = false;
    delivered = false;
    end_time = -1;
    hops = 0;
    rotations = 0;
    steps = 0;
    pauses = 0;
    bypasses = 0;
    asleep_until = 0;
    shape_c0 = Bstnet.Topology.nil;
    shape_c1 = Bstnet.Topology.nil;
    shape_c2 = Bstnet.Topology.nil;
    shape_anchor = Bstnet.Topology.nil;
    shape_v0 = 0;
    shape_v1 = 0;
    shape_v2 = 0;
  }

let reinit m ~id ~kind ~src ~dst ~birth =
  m.id <- id;
  m.kind <- kind;
  m.src <- src;
  m.dst <- dst;
  m.birth <- birth;
  m.current <- src;
  m.phase <- Climbing;
  m.up_credit <- Bstnet.Topology.nil;
  m.update_spawned <- false;
  m.delivered <- false;
  m.end_time <- -1;
  m.hops <- 0;
  m.rotations <- 0;
  m.steps <- 0;
  m.pauses <- 0;
  m.bypasses <- 0;
  m.asleep_until <- 0;
  m.shape_c0 <- Bstnet.Topology.nil;
  m.shape_c1 <- Bstnet.Topology.nil;
  m.shape_c2 <- Bstnet.Topology.nil;
  m.shape_anchor <- Bstnet.Topology.nil;
  m.shape_v0 <- 0;
  m.shape_v1 <- 0;
  m.shape_v2 <- 0

let data ~id ~src ~dst ~birth = make ~id ~kind:Data ~src ~dst ~birth

let weight_update ~id ~origin ~birth =
  make ~id ~kind:Weight_update ~src:origin ~dst:Bstnet.Topology.nil ~birth

let is_data m = match m.kind with Data -> true | Weight_update -> false
let is_update m = match m.kind with Weight_update -> true | Data -> false
let is_climbing m = match m.phase with Climbing -> true | Descending -> false

let is_descending m =
  match m.phase with Descending -> true | Climbing -> false

let priority_compare a b =
  let c = Int.compare a.birth b.birth in
  if c <> 0 then c else Int.compare a.id b.id
