module Time = Planck_util.Time
module Event_queue = Planck_util.Event_queue
module Metrics = Planck_telemetry.Metrics
module Profile = Planck_telemetry.Profile

(* Process-wide aggregates (label-less) for CLI and bench snapshots;
   each engine additionally registers instance metrics under its own
   label so concurrent testbeds in one process don't clobber each
   other. The aggregate high-water is kept monotone across engines. *)
let m_events = Metrics.counter ~subsystem:"engine" ~name:"events_processed" ()
let sp_dispatch = Profile.register "engine.dispatch"

let m_pending_hw =
  Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ()

let aggregate_hw = Atomic.make 0
let next_engine_id = Atomic.make 0

type t = {
  queue : (unit -> unit) Event_queue.t;
  label : string;
  mutable clock : Time.t;
  mutable processed : int;
  mutable max_pending : int;
  mutable cancelled : int;
  tel_pending_hw : Metrics.gauge;
  tel_cancelled : Metrics.counter;
}

let create ?label () =
  let label =
    match label with
    | Some l -> l
    | None ->
        let id = Atomic.fetch_and_add next_engine_id 1 in
        Printf.sprintf "engine%d" id
  in
  {
    queue = Event_queue.create ();
    label;
    clock = 0;
    processed = 0;
    max_pending = 0;
    cancelled = 0;
    tel_pending_hw =
      Metrics.gauge ~subsystem:"engine" ~name:"pending_high_water" ~label ();
    tel_cancelled =
      Metrics.counter ~subsystem:"engine" ~name:"timers_cancelled" ~label ();
  }

let now t = t.clock
let label t = t.label

let note_scheduled t =
  let n = Event_queue.length t.queue in
  if n > t.max_pending then begin
    t.max_pending <- n;
    Metrics.Gauge.set_int t.tel_pending_hw n;
    (* monotone high-water bump: CAS loop so concurrent engines on
       separate domains never regress the aggregate *)
    let rec bump () =
      let cur = Atomic.get aggregate_hw in
      if n > cur then
        if Atomic.compare_and_set aggregate_hw cur n then
          Metrics.Gauge.set_int m_pending_hw n
        else bump ()
    in
    bump ()
  end

let note_cancelled t =
  t.cancelled <- t.cancelled + 1;
  Metrics.Counter.incr t.tel_cancelled

let insert t h ~key =
  Event_queue.add t.queue h ~key;
  note_scheduled t

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  insert t (Event_queue.handle f) ~key:time

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  insert t (Event_queue.handle f) ~key:(t.clock + delay)

module Timer = struct
  type engine = t

  (* The handle is the timer's one queue entry for its whole life; its
     value is the callback itself. *)
  type t = { engine : engine; handle : (unit -> unit) Event_queue.handle }

  let create engine callback = { engine; handle = Event_queue.handle callback }
  let set_callback tm f = Event_queue.set_value tm.handle f
  let pending tm = Event_queue.is_pending tm.handle

  let cancel tm =
    if Event_queue.cancel tm.engine.queue tm.handle then
      note_cancelled tm.engine

  (* Re-arming a pending timer counts as a cancel, as it did when the
     superseded fire was a separate queue entry. *)
  let reschedule_at tm ~time =
    if time < tm.engine.clock then
      invalid_arg "Engine.Timer.reschedule_at: time in the past";
    if Event_queue.is_pending tm.handle then note_cancelled tm.engine;
    insert tm.engine tm.handle ~key:time

  let reschedule tm ~delay =
    if delay < 0 then invalid_arg "Engine.Timer.reschedule: negative delay";
    reschedule_at tm ~time:(tm.engine.clock + delay)
end

let periodic t ~period ?until f =
  if period <= 0 then invalid_arg "Engine.periodic: period must be positive";
  let tm = Timer.create t f in
  let tick () =
    f ();
    match until with
    | Some horizon when t.clock + period > horizon -> ()
    | Some _ | None -> Timer.reschedule tm ~delay:period
  in
  Timer.set_callback tm tick;
  Timer.reschedule tm ~delay:period;
  tm

let every t ~period ?until f = ignore (periodic t ~period ?until f : Timer.t)

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let h = Event_queue.take t.queue in
    t.clock <- Event_queue.key h;
    t.processed <- t.processed + 1;
    Metrics.Counter.incr m_events;
    Profile.enter sp_dispatch;
    (Event_queue.value h) ();
    Profile.exit sp_dispatch;
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
      while
        (not (Event_queue.is_empty t.queue))
        && Event_queue.min_key t.queue <= horizon
      do
        ignore (step t : bool)
      done;
      (* a horizon already in the past leaves the clock where it is *)
      if horizon > t.clock then t.clock <- horizon

let events_processed t = t.processed
let pending t = Event_queue.length t.queue
let max_pending t = t.max_pending
let timers_cancelled t = t.cancelled
let compactions _ = 0
