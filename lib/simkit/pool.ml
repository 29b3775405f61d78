type t = {
  size : int;  (* worker domains; 0 = run in the caller *)
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  sink : Obskit.Sink.t;
  mutable next_task_id : int;  (* under [mutex] *)
  mutable failure : (exn * Printexc.raw_backtrace) option;  (* under [mutex] *)
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let default_num_domains () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let default_jobs () =
  match Sys.getenv_opt "CBNET_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some j when j >= 1 -> j
      | _ -> default_num_domains ())
  | None -> default_num_domains ()

(* First recorded exception wins; concurrent losers are dropped, which
   mirrors the lowest-index rule [map] applies to task-body failures. *)
let record_failure t e bt =
  with_lock t.mutex (fun () ->
      if Option.is_none t.failure then t.failure <- Some (e, bt))

let take_failure t =
  with_lock t.mutex (fun () ->
      let f = t.failure in
      t.failure <- None;
      f)

let worker t () =
  let rec next_task () =
    (* mutex held *)
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closed then None
    else begin
      Condition.wait t.has_work t.mutex;
      next_task ()
    end
  in
  let rec loop () =
    match with_lock t.mutex next_task with
    | None -> ()
    | Some task ->
        (* [map]'s wrapper stores task-body exceptions per result slot;
           anything that escapes the wrapper itself (telemetry, slot
           bookkeeping) is recorded here and re-raised from the next
           batch wait rather than silently dropped. *)
        (match task () with
        | () -> ()
        | exception e -> record_failure t e (Printexc.get_raw_backtrace ()));
        loop ()
  in
  loop ()

let create ?num_domains ?(sink = Obskit.Sink.null) () =
  let requested =
    match num_domains with Some n -> n | None -> default_num_domains ()
  in
  let size = if requested <= 1 then 0 else requested in
  let t =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
      workers = [];
      sink;
      next_task_id = 0;
      failure = None;
    }
  in
  t.workers <- List.init size (fun _ -> Domain.spawn (worker t));
  t

let reserve_ids t n =
  with_lock t.mutex (fun () ->
      let base = t.next_task_id in
      t.next_task_id <- base + n;
      base)

let queue_depth t = with_lock t.mutex (fun () -> Queue.length t.queue)

(* Emit the [Start]/[Done] pair around one task body.  [Done] carries
   the task's wall time; both carry the live queue depth so the trace
   shows backlog draining per domain. *)
let observed t ~id body =
  if not (Obskit.Sink.enabled t.sink) then body ()
  else begin
    let t0 = Obskit.Clock.now_us () in
    let depth = queue_depth t in
    Obskit.Sink.record t.sink (fun () ->
        Obskit.Event.Pool_task
          {
            task = id;
            phase = Obskit.Event.Start;
            queue_depth = depth;
            elapsed_us = 0.0;
          });
    Fun.protect
      ~finally:(fun () ->
        let elapsed_us = Obskit.Clock.now_us () -. t0 in
        let depth = queue_depth t in
        Obskit.Sink.record t.sink (fun () ->
            Obskit.Event.Pool_task
              {
                task = id;
                phase = Obskit.Event.Done;
                queue_depth = depth;
                elapsed_us;
              }))
      body
  end

let submit_batch t tasks =
  with_lock t.mutex (fun () ->
      if t.closed then invalid_arg "Pool.map: pool is shut down";
      let traced = Obskit.Sink.enabled t.sink in
      List.iter
        (fun (id, task) ->
          Queue.push task t.queue;
          if traced then begin
            let depth = Queue.length t.queue in
            Obskit.Sink.record t.sink (fun () ->
                Obskit.Event.Pool_task
                  {
                    task = id;
                    phase = Obskit.Event.Enqueue;
                    queue_depth = depth;
                    elapsed_us = 0.0;
                  })
          end)
        tasks;
      Condition.broadcast t.has_work)

let map t n f =
  if n <= 0 then [||]
  else if t.size = 0 then begin
    (* In-caller execution, in index order: the sequential path.  The
       task never sits in the shared queue, but traced runs still get
       the full Enqueue/Start/Done lifecycle (at depth 0) so exporters
       see the same event shape at every pool size. *)
    let base = reserve_ids t n in
    let run i =
      let id = base + i in
      if Obskit.Sink.enabled t.sink then
        Obskit.Sink.record t.sink (fun () ->
            Obskit.Event.Pool_task
              {
                task = id;
                phase = Obskit.Event.Enqueue;
                queue_depth = 0;
                elapsed_us = 0.0;
              });
      observed t ~id (fun () -> f i)
    in
    let first = run 0 in
    let results = Array.make n first in
    for i = 1 to n - 1 do
      results.(i) <- run i
    done;
    results
  end
  else begin
    let base = reserve_ids t n in
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    let batch_mutex = Mutex.create () in
    let batch_done = Condition.create () in
    let task i () =
      (* The [finally] keeps a raising body (or raising telemetry in
         [observed]'s own finalizer) from leaving [remaining] stuck and
         hanging the batch wait below. *)
      Fun.protect
        ~finally:(fun () ->
          with_lock batch_mutex (fun () ->
              decr remaining;
              if !remaining = 0 then Condition.signal batch_done))
        (fun () ->
          match observed t ~id:(base + i) (fun () -> f i) with
          | v -> results.(i) <- Some v
          | exception e ->
              errors.(i) <- Some (e, Printexc.get_raw_backtrace ()))
    in
    submit_batch t (List.init n (fun i -> (base + i, task i)));
    with_lock batch_mutex (fun () ->
        while !remaining > 0 do
          Condition.wait batch_done batch_mutex
        done);
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    (match take_failure t with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map
      (function
        | Some v -> v | None -> assert false (* every slot filled or raised *))
      results
  end

let run t thunks =
  let arr = Array.of_list thunks in
  map t (Array.length arr) (fun i -> arr.(i) ()) |> Array.to_list

let shutdown t =
  let was_closed =
    with_lock t.mutex (fun () ->
        let was_closed = t.closed in
        t.closed <- true;
        Condition.broadcast t.has_work;
        was_closed)
  in
  if not was_closed then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?num_domains ?sink f =
  let t = create ?num_domains ?sink () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
