let default_jobs () =
  match Sys.getenv_opt "DQ_JOBS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg (Printf.sprintf "DQ_JOBS must be a positive integer, got %S" s))

let chunk_ranges ~n ~chunk_size =
  if n < 0 then invalid_arg "Pool.chunk_ranges: n < 0";
  if chunk_size < 1 then invalid_arg "Pool.chunk_ranges: chunk_size < 1";
  let n_chunks = (n + chunk_size - 1) / chunk_size in
  List.init n_chunks (fun i ->
      let start = i * chunk_size in
      (start, Stdlib.min chunk_size (n - start)))

(* One parallel map in flight. Workers claim chunk indices from [next];
   [completed] counts finished chunks so the caller knows when the whole
   map is done. [run_chunk] never raises — errors are recorded per chunk
   and re-raised by the caller. *)
type task = {
  run_chunk : int -> unit;
  n_chunks : int;
  next : int Atomic.t;
  completed : int Atomic.t;
}

type t = {
  mutex : Mutex.t;
  work : Condition.t; (* a new task was submitted, or shutdown *)
  finished : Condition.t; (* the current task's last chunk completed *)
  mutable task : (int * task) option; (* (generation, task) *)
  mutable generation : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  n_jobs : int;
  busy : bool Atomic.t; (* a map is in flight; re-entrant maps go serial *)
  posted : int Atomic.t; (* generation of the last task posted; -1 after shutdown *)
  spins : int; (* polls before blocking on a condition; 0 when oversubscribed *)
}

let jobs t = t.n_jobs

(* Waiting is spin-then-block. A worker that finished a task, and the
   caller waiting for a map's last chunk, first poll for up to [spins]
   [Domain.cpu_relax] rounds (about 30 ns each, so ~60 us) before
   sleeping on a condition variable. Back-to-back short maps — a PDES
   window is a few hundred microseconds — then hand over without an OS
   wake-up, whose latency on a loaded machine is both large and
   erratic. [Domain.cpu_relax] also serves stop-the-world requests, so
   a spinning domain does not hold up a minor collection. *)
let spin_budget = 2048

let spin_until spins ready =
  let rec go k = if k > 0 && not (ready ()) then (Domain.cpu_relax (); go (k - 1)) in
  go spins

let run_task t task =
  let rec claim () =
    let i = Atomic.fetch_and_add task.next 1 in
    if i < task.n_chunks then begin
      task.run_chunk i;
      if Atomic.fetch_and_add task.completed 1 + 1 = task.n_chunks then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

(* Each worker remembers the generation it last served so a task is never
   picked up twice by the same worker after its chunks run out. *)
let rec worker_loop t last_gen =
  spin_until t.spins (fun () -> Atomic.get t.posted <> last_gen);
  Mutex.lock t.mutex;
  let rec await () =
    if t.stop then None
    else
      match t.task with
      | Some (gen, task) when gen <> last_gen -> Some (gen, task)
      | _ ->
        Condition.wait t.work t.mutex;
        await ()
  in
  let next = await () in
  Mutex.unlock t.mutex;
  match next with
  | None -> ()
  | Some (gen, task) ->
    run_task t task;
    worker_loop t gen

let create ?jobs () =
  let n_jobs = match jobs with Some j -> j | None -> default_jobs () in
  if n_jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      task = None;
      generation = 0;
      stop = false;
      workers = [];
      n_jobs;
      busy = Atomic.make false;
      posted = Atomic.make 0;
      spins = (if n_jobs <= Domain.recommended_domain_count () then spin_budget else 0);
    }
  in
  t.workers <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Atomic.set t.posted (-1);
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_array ?(chunk_size = 1) t f input =
  let n = Array.length input in
  if chunk_size < 1 then invalid_arg "Pool.map_array: chunk_size < 1";
  if n = 0 then [||]
  else if t.n_jobs = 1 || not (Atomic.compare_and_set t.busy false true) then
    Array.map f input
  else begin
    let ranges = Array.of_list (chunk_ranges ~n ~chunk_size) in
    let n_chunks = Array.length ranges in
    let results = Array.make n None in
    let errors = Array.make n_chunks None in
    let run_chunk ci =
      let start, len = ranges.(ci) in
      try
        for i = start to start + len - 1 do
          results.(i) <- Some (f input.(i))
        done
      with e -> errors.(ci) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let task = { run_chunk; n_chunks; next = Atomic.make 0; completed = Atomic.make 0 } in
    Mutex.lock t.mutex;
    t.generation <- t.generation + 1;
    t.task <- Some (t.generation, task);
    Atomic.set t.posted t.generation;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    run_task t task;
    spin_until t.spins (fun () -> Atomic.get task.completed = task.n_chunks);
    Mutex.lock t.mutex;
    while Atomic.get task.completed < task.n_chunks do
      Condition.wait t.finished t.mutex
    done;
    t.task <- None;
    Mutex.unlock t.mutex;
    Atomic.set t.busy false;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?chunk_size t f xs = Array.to_list (map_array ?chunk_size t f (Array.of_list xs))
