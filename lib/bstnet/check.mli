(** Structural invariant checkers, used by tests and by simulators in
    debug mode.  Each check returns [Ok ()] or a description of the
    first violation found. *)

(* lint: allow unused-export -- invariant oracle of the test suites *)
val structure : Topology.t -> (unit, string) result
(** Parent/child links are mutually consistent, every node is reachable
    from the root exactly once, and there are no cycles. *)

(* lint: allow unused-export -- invariant oracle of the test suites *)
val bst_order : Topology.t -> (unit, string) result
(** In-order traversal yields [0, 1, ..., n-1]. *)

(* lint: allow unused-export -- invariant oracle of the test suites *)
val interval_labels : Topology.t -> (unit, string) result
(** Every node's [smallest]/[largest] equal the true subtree min/max. *)

(* lint: allow unused-export -- invariant oracle of the test suites *)
val weights : ?counters:int array -> Topology.t -> (unit, string) result
(** Every node's weight equals its counter plus its children's weights
    and counters are non-negative; when [counters] is given, the
    derived counters must equal it. *)

val structural : Topology.t -> (unit, string) result
(** {!structure}, {!bst_order} and {!interval_labels} in sequence —
    everything except {!weights}.  This is the suite run-time invariant
    gates use: weight sums are a {e flow} property, exact only relative
    to the weight-update deposits still in flight, so a mid-run (or
    even end-of-run) tree of a concurrent execution can legitimately
    fail {!weights} while being perfectly well-formed. *)

(* lint: allow unused-export -- invariant oracle of the test suites *)
val all : ?counters:int array -> Topology.t -> (unit, string) result
(** All of the above in sequence ({!structural} then {!weights}). *)

val trace : who:string -> Topology.t -> (int * int * int) array -> unit
(** The trace contract of every executor: [(birth, src, dst)] requests
    in non-decreasing birth order, endpoints in [0, n).
    @raise Invalid_argument ["<who>: trace not sorted"] or
    ["<who>: endpoint out of range"] on the first violation. *)

val assert_ok : (unit, string) result -> unit
(** @raise Failure with the violation description on [Error]. *)
