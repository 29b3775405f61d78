type t = Null | Fn of (Event.t -> unit)

(* Private copy of [Simkit.Pool.with_lock] — obskit sits below simkit
   in the dependency order, so it cannot borrow the public one. *)
let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let null = Null
let enabled = function Null -> false | Fn _ -> true
let emit t ev = match t with Null -> () | Fn f -> f ev

let record t make =
  match t with
  | Null -> ()
  | Fn _ ->
      emit t
        {
          Event.ts_us = Clock.now_us ();
          domain = (Domain.self () :> int);
          payload = make ();
        }

let stream f =
  let lock = Mutex.create () in
  Fn (fun ev -> with_lock lock (fun () -> f ev))

let tee sinks =
  match List.filter enabled sinks with
  | [] -> Null
  | [ s ] -> s
  | sinks -> Fn (fun ev -> List.iter (fun s -> emit s ev) sinks)

let span t name f =
  match t with
  | Null -> f ()
  | Fn _ ->
      record t (fun () -> Event.Span { name; phase = Event.Begin });
      Fun.protect
        ~finally:(fun () ->
          record t (fun () -> Event.Span { name; phase = Event.End }))
        f

module Ring = struct
  type buf = {
    data : Event.t option array;
    lock : Mutex.t;
    mutable next : int;  (* write cursor *)
    mutable total : int;  (* events ever pushed *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Sink.Ring.create: capacity must be >= 1";
    {
      data = Array.make capacity None;
      lock = Mutex.create ();
      next = 0;
      total = 0;
    }

  let locked b f = with_lock b.lock f

  let sink b =
    Fn
      (fun ev ->
        locked b (fun () ->
            b.data.(b.next) <- Some ev;
            b.next <- (b.next + 1) mod Array.length b.data;
            b.total <- b.total + 1))

  let length b =
    locked b (fun () -> Stdlib.min b.total (Array.length b.data))

  let dropped b =
    locked b (fun () -> Stdlib.max 0 (b.total - Array.length b.data))

  let contents b =
    locked b (fun () ->
        let cap = Array.length b.data in
        let n = Stdlib.min b.total cap in
        let first = if b.total <= cap then 0 else b.next in
        List.init n (fun i ->
            match b.data.((first + i) mod cap) with
            | Some ev -> ev
            | None -> assert false (* slots below [n] are always filled *)))
end
