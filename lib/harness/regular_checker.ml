open Dq_storage

type violation = {
  read : History.op;
  returned_write : History.op option;
  expected_lc : Lc.t;
  reason : string;
}

type report = { reads : int; checked : int; violations : violation list }

(* Does write [w] overlap read [r] in real time? A write without a
   response is concurrent with everything after its invocation. *)
let concurrent (w : History.op) (r : History.op) =
  match r.responded with
  | None -> false (* incomplete reads are not checked *)
  | Some r_end -> (
    w.invoked < r_end
    && match w.responded with None -> true | Some w_end -> w_end > r.invoked)

(* Completed operations carry both a response time and a clock. *)
let end_of (w : History.op) = match w.responded with Some t -> t | None -> infinity
let lc_of (w : History.op) = match w.lc with Some lc -> lc | None -> Lc.zero

(* One key's writes, indexed for reads. [completed] holds the completed
   writes, latest in history order first; [ends] their response times
   in ascending order; and [best.(i)] the index in [completed] of the
   highest clock among the first [i + 1] of them by response time (on
   equal clocks the lower index, i.e. the later op in history order).
   [by_value] maps every value written, completed or not, to its last
   write in history order. *)
type key_writes = {
  completed : History.op array;
  ends : float array;
  best : int array;
  by_value : (string, History.op) Hashtbl.t;
}

let index_writes ~completed ~by_value =
  let completed = Array.of_list completed in
  let n = Array.length completed in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (end_of completed.(a)) (end_of completed.(b)))
    order;
  let ends = Array.create_float n and best = Array.make n 0 in
  Array.iteri
    (fun i w ->
      ends.(i) <- end_of completed.(w);
      best.(i) <- w;
      if i > 0 then begin
        let prev = best.(i - 1) in
        let c = Lc.compare (lc_of completed.(prev)) (lc_of completed.(w)) in
        if c > 0 || (c = 0 && prev < w) then best.(i) <- prev
      end)
    order;
  { completed; ends; best; by_value }

(* How many of the ascending [ends] are [<= t]. *)
let count_upto (ends : float array) (t : float) =
  let lo = ref 0 and hi = ref (Array.length ends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ends.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The completed write with the highest logical clock among those that
   responded before the read began. *)
let freshest_completed_before kw (r : History.op) =
  match count_upto kw.ends r.invoked with
  | 0 -> None
  | n -> Some kw.completed.(kw.best.(n - 1))

let violation read expected_lc ?returned_write reason =
  Some { read; returned_write; expected_lc; reason }

let check_read kw (r : History.op) =
  let freshest = match kw with Some kw -> freshest_completed_before kw r | None -> None in
  let expected_lc = match freshest with Some w -> lc_of w | None -> Lc.zero in
  if r.value = "" then
    (* The initial value: legal iff no write had completed before the
       read began (a concurrent write's pre-state is the initial value
       only in that case too). *)
    match freshest with
    | None -> None
    | Some w ->
      violation r expected_lc ~returned_write:w
        (Format.asprintf "read returned the initial value after write lc=%a completed" Lc.pp
           expected_lc)
  else
    let written = match kw with Some kw -> Hashtbl.find_opt kw.by_value r.value | None -> None in
    match written with
    | None -> violation r expected_lc "read returned a value never written to this key"
    | Some (w : History.op) ->
      let is_freshest = match freshest with Some fw -> fw.id = w.id | None -> false in
      if is_freshest || concurrent w r then None
      else
        violation r expected_lc ~returned_write:w
          (Format.asprintf
             "stale read: returned write lc=%s but the freshest completed write has lc=%a"
             (match w.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "?")
             Lc.pp expected_lc)

type pending = { mutable writes : History.op list; values : (string, History.op) Hashtbl.t }

(* O(n log n): one pass groups the writes by key, each key's completed
   writes are sorted once, and each completed read is one binary search. *)
let check ops =
  let by_key = Hashtbl.create 64 in
  let reads = ref 0 and checked = ref 0 in
  List.iter
    (fun (op : History.op) ->
      match op.kind with
      | History.Write ->
        let p =
          match Hashtbl.find_opt by_key op.key with
          | Some p -> p
          | None ->
            let p = { writes = []; values = Hashtbl.create 8 } in
            Hashtbl.add by_key op.key p;
            p
        in
        Hashtbl.replace p.values op.value op;
        if Option.is_some op.responded && Option.is_some op.lc then p.writes <- op :: p.writes
      | History.Read ->
        incr reads;
        if Option.is_some op.responded then incr checked)
    ops;
  let index = Hashtbl.create (Hashtbl.length by_key) in
  Hashtbl.iter
    (fun key p -> Hashtbl.add index key (index_writes ~completed:p.writes ~by_value:p.values))
    by_key;
  let violations =
    List.filter_map
      (fun (op : History.op) ->
        match op.kind, op.responded with
        | History.Read, Some _ -> check_read (Hashtbl.find_opt index op.key) op
        | _ -> None)
      ops
  in
  { reads = !reads; checked = !checked; violations }

let is_regular ops =
  match (check ops).violations with [] -> true | _ :: _ -> false

type inversion = {
  first_read : History.op;
  second_read : History.op;
  first_lc : Lc.t;
  second_lc : Lc.t;
}

(* Completed reads seen so far in a sweep, by clock and then by rank in
   response-time order. *)
module Seen = Map.Make (struct
  type t = Lc.t * int

  let compare (a, i) (b, j) = match Lc.compare a b with 0 -> Int.compare i j | c -> c
end)

(* One key's inversions, prepended to [acc]. [reads] are the key's
   clocked completed reads, latest in history order first, and [rank]
   is a read's position once they are sorted stably by response time.
   The read at rank [j] precedes the one at rank [i] when [j < i] and
   it responded no later than the other was invoked. Sweeping the reads
   in invocation order, every read that responded by then is in [seen],
   so the preceding reads with a newer clock are one range of it:
   O(r log r + k) for [k] inversions. *)
let key_inversions acc reads =
  let by_end = Array.of_list reads in
  Array.stable_sort
    (fun (a : History.op) (b : History.op) -> Option.compare Float.compare a.responded b.responded)
    by_end;
  let by_start = Array.init (Array.length by_end) Fun.id in
  Array.stable_sort
    (fun i j -> Float.compare by_end.(i).History.invoked by_end.(j).History.invoked)
    by_start;
  let seen = ref Seen.empty and next = ref 0 and acc = ref acc in
  Array.iter
    (fun i ->
      let second = by_end.(i) in
      while !next < Array.length by_end && end_of by_end.(!next) <= second.invoked do
        seen := Seen.add (lc_of by_end.(!next), !next) by_end.(!next) !seen;
        incr next
      done;
      let second_lc = lc_of second in
      Seq.iter
        (fun ((first_lc, j), first) ->
          if j < i then
            acc := { first_read = first; second_read = second; first_lc; second_lc } :: !acc)
        (Seen.to_seq_from (second_lc, max_int) !seen))
    by_start;
  !acc

let new_old_inversions ops =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Read, Some _, Some _ ->
        Hashtbl.replace by_key op.key
          (op :: Option.value (Hashtbl.find_opt by_key op.key) ~default:[])
      | _ -> ())
    ops;
  Hashtbl.fold (fun _ reads acc -> key_inversions acc reads) by_key []
  (* key-group order is hash order; sort so the report is a function of
     the history alone (R7) *)
  |> List.sort (fun a b ->
         match Int.compare a.first_read.History.id b.first_read.History.id with
         | 0 -> Int.compare a.second_read.History.id b.second_read.History.id
         | c -> c)

let is_atomic ops =
  is_regular ops
  && match new_old_inversions ops with [] -> true | _ :: _ -> false

let pp_report ppf report =
  Format.fprintf ppf "reads=%d checked=%d violations=%d" report.reads report.checked
    (List.length report.violations);
  List.iteri
    (fun i v ->
      if i < 5 then
        Format.fprintf ppf "@,  [%d] op%d on %a at %.1f: %s" i v.read.History.id Key.pp
          v.read.History.key v.read.History.invoked v.reason)
    report.violations

type session_report = { ryw_violations : int; monotonic_violations : int }

let check_sessions ops =
  (* Closed-loop clients issue operations sequentially, so id order is
     session order within a client. *)
  let floors = Hashtbl.create 32 in
  (* (client, key) -> (max own completed write lc, max own read lc) *)
  let ryw = ref 0 and monotonic = ref 0 in
  List.iter
    (fun (op : History.op) ->
      match op.responded, op.lc with
      | Some _, Some lc -> (
        let slot = (op.client, op.key) in
        let write_floor, read_floor =
          Option.value (Hashtbl.find_opt floors slot) ~default:(Lc.zero, Lc.zero)
        in
        match op.kind with
        | History.Write -> Hashtbl.replace floors slot (Lc.max write_floor lc, read_floor)
        | History.Read ->
          if Lc.(lc < write_floor) then incr ryw;
          if Lc.(lc < read_floor) then incr monotonic;
          Hashtbl.replace floors slot (write_floor, Lc.max read_floor lc))
      | _ -> ())
    (List.sort (fun (a : History.op) b -> Int.compare a.id b.id) ops);
  { ryw_violations = !ryw; monotonic_violations = !monotonic }
