open Dq_storage

type stale_read = { read : History.op; behind_ms : float; versions_behind : int }

type report = {
  checked : int;
  stale : stale_read list;
  max_behind_ms : float;
  mean_behind_ms : float;
  max_versions_behind : int;
}

(* Completed operations carry both a response time and a clock. *)
let end_of (op : History.op) = match op.responded with Some t -> t | None -> infinity
let lc_of (op : History.op) = match op.lc with Some lc -> lc | None -> Lc.zero

(* How many of the ascending [clocks] are [<= lc]. *)
let count_upto clocks lc =
  let lo = ref 0 and hi = ref (Array.length clocks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Lc.(clocks.(mid) <= lc) then lo := mid + 1 else hi := mid
  done;
  !lo

(* One key's stale reads, stored at their slots in [found]. [slots]
   index the key's clocked completed reads in [reads]. A read is stale
   when writes with a newer clock completed before it began; sweeping
   the reads in invocation order, those writes are inserted in response
   order into a Fenwick tree over the key's sorted clocks, highest
   first, whose nodes hold a count and the latest response time. *)
let examine_key ~reads ~found writes slots =
  let writes = Array.of_list writes in
  Array.stable_sort (fun a b -> Float.compare (end_of a) (end_of b)) writes;
  let clocks = Array.map lc_of writes in
  Array.stable_sort Lc.compare clocks;
  let d = Array.length clocks in
  (* 1-based: prefix [1, k] holds the writes among the [k] highest
     clocks. A write goes to the last position of its clock. *)
  let count = Array.make (d + 1) 0 and latest = Array.make (d + 1) neg_infinity in
  let slots = Array.of_list slots in
  Array.stable_sort
    (fun a b -> Float.compare reads.(a).History.invoked reads.(b).History.invoked)
    slots;
  let next = ref 0 in
  Array.iter
    (fun slot ->
      let r : History.op = reads.(slot) in
      while !next < Array.length writes && end_of writes.(!next) <= r.invoked do
        let w_end = end_of writes.(!next) in
        let k = ref (d - count_upto clocks (lc_of writes.(!next)) + 1) in
        while !k <= d do
          count.(!k) <- count.(!k) + 1;
          (* Writes arrive in response order: the last is the latest. *)
          latest.(!k) <- w_end;
          k := !k + (!k land (- !k))
        done;
        incr next
      done;
      let missed = ref 0 and latest_end = ref neg_infinity in
      let k = ref (d - count_upto clocks (lc_of r)) in
      while !k > 0 do
        missed := !missed + count.(!k);
        if latest.(!k) > !latest_end then latest_end := latest.(!k);
        k := !k - (!k land (- !k))
      done;
      if !missed > 0 then
        found.(slot) <-
          Some { read = r; behind_ms = end_of r -. !latest_end; versions_behind = !missed })
    slots

type group = { mutable writes : History.op list; mutable slots : int list }

(* O(n log n): one pass groups completed writes and reads by key, then
   each key is one sweep. *)
let measure ops =
  let by_key = Hashtbl.create 16 in
  let group key =
    match Hashtbl.find_opt by_key key with
    | Some g -> g
    | None ->
      let g = { writes = []; slots = [] } in
      Hashtbl.add by_key key g;
      g
  in
  let reads = ref [] and n = ref 0 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Write, Some _, Some _ ->
        let g = group op.key in
        g.writes <- op :: g.writes
      | History.Read, Some _, lc ->
        if Option.is_some lc then begin
          let g = group op.key in
          g.slots <- !n :: g.slots
        end;
        reads := op :: !reads;
        incr n
      | _ -> ())
    ops;
  let reads = Array.of_list (List.rev !reads) in
  let found = Array.make !n None in
  Hashtbl.iter (fun _ g -> examine_key ~reads ~found g.writes g.slots) by_key;
  let stale =
    Array.fold_right (fun s acc -> match s with Some s -> s :: acc | None -> acc) found []
  in
  let max_behind_ms = List.fold_left (fun acc s -> Float.max acc s.behind_ms) 0. stale in
  let mean_behind_ms =
    match stale with
    | [] -> 0.
    | _ ->
      List.fold_left (fun acc s -> acc +. s.behind_ms) 0. stale
      /. float_of_int (List.length stale)
  in
  let max_versions_behind =
    List.fold_left (fun acc s -> Stdlib.max acc s.versions_behind) 0 stale
  in
  { checked = !n; stale; max_behind_ms; mean_behind_ms; max_versions_behind }

type age_report = { reads : int; mean_age_ms : float; max_age_ms : float }

(* The offline twin of the online sink's read-age metric: for each
   completed read, the time since the write that produced the returned
   version completed — 0 when that write's own response was still in
   flight (or the value is the initial one), matching the online
   definition where only already-completed writes are visible. *)
let measure_age ops =
  (* (key, clock) -> response time of the first completed write with
     that clock, in history order. *)
  let completed = Hashtbl.create 64 in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded, op.lc with
      | History.Write, Some w_end, Some lc ->
        if not (Hashtbl.mem completed (op.key, lc)) then Hashtbl.add completed (op.key, lc) w_end
      | _ -> ())
    ops;
  let reads = ref 0 in
  let sum = ref 0. in
  let max_age = ref 0. in
  List.iter
    (fun (op : History.op) ->
      match op.kind, op.responded with
      | History.Read, Some r_end ->
        incr reads;
        let age =
          match op.lc with
          | None -> 0.
          | Some r_lc ->
            (match Hashtbl.find_opt completed (op.key, r_lc) with
            | Some w_end when w_end <= r_end -> r_end -. w_end
            | _ -> 0.)
        in
        sum := !sum +. age;
        if age > !max_age then max_age := age
      | _ -> ())
    ops;
  {
    reads = !reads;
    mean_age_ms = (if !reads = 0 then 0. else !sum /. float_of_int !reads);
    max_age_ms = !max_age;
  }

let stale_fraction report =
  if report.checked = 0 then 0.
  else float_of_int (List.length report.stale) /. float_of_int report.checked

let pp ppf report =
  Format.fprintf ppf "checked=%d stale=%d (%.1f%%) behind mean=%.0fms max=%.0fms versions<=%d"
    report.checked (List.length report.stale)
    (100. *. stale_fraction report)
    report.mean_behind_ms report.max_behind_ms report.max_versions_behind
