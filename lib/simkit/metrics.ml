(* Observation streams are log-bucketed histograms (Profkit.Histogram),
   not sample-retaining accumulators: telemetry recorders observe once
   per event on paths that emit millions of events, so the registry
   must absorb observations at O(1) time and fixed memory.  Quantiles
   in exports are therefore bucket-reconstructed, with relative error
   bounded by the histogram's sub-bucket resolution (~3.1%). *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  streams : (string, Profkit.Histogram.t) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; streams = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)
let add t name k = counter_ref t name := !(counter_ref t name) + k

let histogram_ref t name =
  match Hashtbl.find_opt t.streams name with
  | Some h -> h
  | None ->
      let h = Profkit.Histogram.create () in
      Hashtbl.add t.streams name h;
      h

let observe t name x = Profkit.Histogram.record (histogram_ref t name) x

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.counters ( ! )
let histograms t = sorted_bindings t.streams Fun.id
