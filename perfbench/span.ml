(* Wall clock and the in-memory span recorder of the traced run.

   Spans are recorded from the benchmark's own code, around each call
   into a layer's public function. With recording off, [with_] only
   calls its argument, so the untraced run measures the program alone. *)

(* Monotonic, nanosecond resolution, allocation-free. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  id : int;
  name : string;
  run : string;  (** workload/protocol the span belongs to *)
  parent : int;  (** id of the enclosing span; -1 at the root *)
  start_s : float;
  end_s : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_run = ref ""

let set_run run = current_run := run

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let run = !current_run in
    stack := id :: !stack;
    let start_s = now () in
    let finish () =
      let end_s = now () in
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      recorded := { id; name; run; parent; start_s; end_s } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Self time of each span: its duration minus the part its children
   cover. Children of one span run one after another (the benchmark is
   sequential between spans), so their durations add up. Summed per
   span name over [spans]. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.end_s -. s.start_s)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let children = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let self = s.end_s -. s.start_s -. children in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. self))
    spans;
  fun name -> Option.value ~default:0. (Hashtbl.find_opt by_name name)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace-event JSON (opens in Perfetto): one complete ("X")
   event per span, one process per run id, times in microseconds from
   the first span. *)
let write_chrome path spans =
  let spans = List.sort (fun a b -> Int.compare a.id b.id) spans in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start_s) Float.infinity spans in
  let pids = Hashtbl.create 16 in
  let pid_of run =
    match Hashtbl.find_opt pids run with
    | Some p -> p
    | None ->
      let p = Hashtbl.length pids + 1 in
      Hashtbl.replace pids run p;
      p
  in
  let events =
    List.map
      (fun s ->
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,\"args\":{\"id\":%d,\"parent\":%d,\"run\":\"%s\"}}"
          (escape s.name)
          ((s.start_s -. t0) *. 1e6)
          ((s.end_s -. s.start_s) *. 1e6)
          (pid_of s.run) s.id s.parent (escape s.run))
      spans
  in
  let names =
    Hashtbl.fold
      (fun run pid acc ->
        Printf.sprintf
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
          pid (escape run)
        :: acc)
      pids []
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  output_string oc (String.concat ",\n" (List.sort String.compare names @ events));
  output_string oc "\n]}\n";
  close_out oc
