type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  live : int ref; (* shared with the owning engine *)
}

type handle = event

(* Pending events live in two places: the hierarchical timer wheel
   (O(1) insert for the dense near-horizon timers) and the event heap
   (imminent events — below the wheel's boundary — plus anything the
   wheel rejected: far-future overflow and float-edge cases). [refill]
   migrates wheel slots into the heap as the boundary advances, so the
   heap's (time, seq) order remains the exact global firing order and
   the wheel never changes observable behaviour. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  live : int ref; (* pending (not cancelled, not fired) events *)
  queue : event Event_heap.t;
  wheel : event Timer_wheel.t;
  mutable fired : int; (* events executed since creation *)
  drain : time:float -> seq:int -> event -> unit; (* wheel slot -> heap *)
  root_rng : Dq_util.Rng.t;
  bus : Dq_telemetry.Bus.t;
}

let create ?(seed = 1L) () =
  (* The dummy only fills vacated heap/wheel slots; it is never scheduled. *)
  let dummy = { time = 0.; seq = -1; action = ignore; cancelled = true; live = ref 0 } in
  let queue = Event_heap.create ~dummy in
  let t =
    {
      clock = 0.;
      next_seq = 0;
      live = ref 0;
      queue;
      wheel = Timer_wheel.create ~dummy ();
      fired = 0;
      drain = (fun ~time ~seq ev -> Event_heap.push queue ~time ~seq ev);
      root_rng = Dq_util.Rng.create seed;
      bus = Dq_telemetry.Bus.create ();
    }
  in
  Dq_telemetry.Bus.set_now t.bus (fun () -> t.clock);
  t

let now t = t.clock

let telemetry t = t.bus

let rng t = t.root_rng

let split_rng t = Dq_util.Rng.split t.root_rng

let events_executed t = t.fired

let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let ev = { time; seq = t.next_seq; action = f; cancelled = false; live = t.live } in
  t.next_seq <- t.next_seq + 1;
  incr t.live;
  if Timer_wheel.length t.wheel = 0 then Timer_wheel.rebase t.wheel ~now:t.clock;
  if not (Timer_wheel.add t.wheel ~time ~seq:ev.seq ev) then
    Event_heap.push t.queue ~time ~seq:ev.seq ev;
  ev

let schedule t ~delay f =
  if not (delay >= 0.) then invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ~time:(t.clock +. delay) f

(* [live] is decremented exactly once per event: at cancel time, or when
   the event fires. Popping an already-cancelled event does not touch it. *)
let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    decr ev.live
  end

let is_pending ev = not ev.cancelled

let pending_events t = !(t.live)

(* The loop below allocates nothing per event: no option boxes from
   the heap, no per-call closures ([drain] is built once in [create]).
   [settle] brings the next event that will actually fire to the heap
   top; [fire] runs it. *)

(* Migrate wheel slots into the heap until the heap's minimum is
   strictly below the wheel boundary (and hence the global minimum),
   or the wheel empties. An empty heap's minimum is [infinity]. *)
let refill t =
  while
    Timer_wheel.length t.wheel > 0
    && not (Event_heap.min_time t.queue < Timer_wheel.boundary t.wheel)
  do
    Timer_wheel.advance t.wheel ~drain:t.drain
  done

(* Refill, then drop cancelled events from the heap top: afterwards the
   heap is empty or its top is the next event to fire. *)
let rec settle t =
  refill t;
  if (not (Event_heap.is_empty t.queue)) && (Event_heap.top t.queue).cancelled then begin
    Event_heap.drop_top t.queue;
    settle t
  end

(* Pop and run the settled top event. *)
let fire t =
  let ev = Event_heap.top t.queue in
  Event_heap.drop_top t.queue;
  t.clock <- ev.time;
  ev.cancelled <- true;
  decr t.live;
  t.fired <- t.fired + 1;
  ev.action ()

let step t =
  settle t;
  if Event_heap.is_empty t.queue then false
  else begin
    fire t;
    true
  end

let next_time t =
  settle t;
  if Event_heap.is_empty t.queue then None else Some (Event_heap.min_time t.queue)

let run ?until ?max_events t =
  let limit = match until with None -> Float.infinity | Some limit -> limit in
  let budget = match max_events with None -> max_int | Some m -> m in
  let rec loop fired =
    if fired < budget then begin
      settle t;
      if (not (Event_heap.is_empty t.queue)) && Event_heap.min_time t.queue <= limit then begin
        fire t;
        loop (fired + 1)
      end
    end
  in
  loop 0;
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | Some _ | None -> ()

let run_while t cond =
  let rec loop () = if cond () && step t then loop () in
  loop ()

(* PDES window execution: fire events strictly below [limit], leaving
   the clock at the last fired event (never advanced to [limit], so a
   partition can still accept cross-partition posts inside the next
   window). An empty heap reads [infinity] and stops the loop. *)
let run_before t ~limit =
  let rec loop () =
    settle t;
    if Event_heap.min_time t.queue < limit then begin
      fire t;
      loop ()
    end
  in
  loop ()
