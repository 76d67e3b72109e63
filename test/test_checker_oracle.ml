(* The offline history checkers against their quadratic reference
   implementations: the direct transcription of each definition (fold
   over every write per read, rescan the history per key, pairwise scan
   for inversions). Both must return identical reports on small random
   histories built to hit the tie cases, and on real driver histories
   of the five paper protocols. *)

module H = Dq_harness.History
module C = Dq_harness.Regular_checker
module S = Dq_harness.Staleness
module Scenario = Dq_bench.Scenario
module Spec = Dq_workload.Spec
open Dq_storage

(* {1 Reference implementations} *)

module Oracle = struct
  let concurrent (w : H.op) (r : H.op) =
    match r.responded with
    | None -> false
    | Some r_end -> (
      w.invoked < r_end && match w.responded with None -> true | Some w_end -> w_end > r.invoked)

  let check ops =
    let reads = List.filter (fun (o : H.op) -> o.kind = H.Read) ops in
    let completed = List.filter (fun (o : H.op) -> Option.is_some o.responded) reads in
    let check_read (r : H.op) =
      (* The key's writes, latest in history order first: that one wins
         among equal clocks and among equal values. *)
      let writes =
        List.rev (List.filter (fun (o : H.op) -> o.kind = H.Write && Key.equal o.key r.key) ops)
      in
      let freshest =
        List.fold_left
          (fun best (w : H.op) ->
            match w.responded, w.lc with
            | Some w_end, Some w_lc when w_end <= r.invoked -> (
              match best with Some (_, b) when Lc.(b >= w_lc) -> best | _ -> Some (w, w_lc))
            | _ -> best)
          None writes
      in
      let expected_lc = match freshest with Some (_, lc) -> lc | None -> Lc.zero in
      let fail ?returned_write reason = Some { C.read = r; returned_write; expected_lc; reason } in
      if r.value = "" then
        match freshest with
        | None -> None
        | Some (w, lc) ->
          fail ~returned_write:w
            (Format.asprintf "read returned the initial value after write lc=%a completed" Lc.pp lc)
      else
        match List.find_opt (fun (w : H.op) -> w.value = r.value) writes with
        | None -> fail "read returned a value never written to this key"
        | Some w ->
          let is_freshest = match freshest with Some (fw, _) -> fw.id = w.id | None -> false in
          if is_freshest || concurrent w r then None
          else
            fail ~returned_write:w
              (Format.asprintf
                 "stale read: returned write lc=%s but the freshest completed write has lc=%a"
                 (match w.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "?")
                 Lc.pp expected_lc)
    in
    {
      C.reads = List.length reads;
      checked = List.length completed;
      violations = List.filter_map check_read completed;
    }

  (* Completed writes on one key, sorted (stably) by logical clock. *)
  let completed_writes ops key =
    List.filter_map
      (fun (op : H.op) ->
        match op.kind, op.responded, op.lc with
        | H.Write, Some ended, Some lc when Key.equal op.key key -> Some (lc, ended)
        | _ -> None)
      ops
    |> List.sort (fun (a, _) (b, _) -> Lc.compare a b)

  let measure ops =
    let reads =
      List.filter (fun (o : H.op) -> o.kind = H.Read && Option.is_some o.responded) ops
    in
    let stale =
      List.filter_map
        (fun (r : H.op) ->
          match r.responded, r.lc with
          | Some r_end, Some r_lc -> (
            (* Writes with a newer clock that completed before the read
               began. *)
            let missed =
              List.filter
                (fun (w_lc, w_end) -> Lc.(w_lc > r_lc) && w_end <= r.invoked)
                (completed_writes ops r.key)
            in
            match missed with
            | [] -> None
            | _ ->
              let latest = List.fold_left (fun acc (_, e) -> Float.max acc e) neg_infinity missed in
              Some
                { S.read = r; behind_ms = r_end -. latest; versions_behind = List.length missed })
          | _ -> None)
        reads
    in
    let n = List.length stale in
    {
      S.checked = List.length reads;
      stale;
      max_behind_ms = List.fold_left (fun acc s -> Float.max acc s.S.behind_ms) 0. stale;
      mean_behind_ms =
        (if n = 0 then 0.
         else List.fold_left (fun acc s -> acc +. s.S.behind_ms) 0. stale /. float_of_int n);
      max_versions_behind = List.fold_left (fun acc s -> max acc s.S.versions_behind) 0 stale;
    }

  let measure_age ops =
    let ages =
      List.filter_map
        (fun (op : H.op) ->
          match op.kind, op.responded with
          | H.Read, Some r_end ->
            Some
              (match op.lc with
              | None -> 0.
              | Some r_lc -> (
                match
                  List.find_opt (fun (w_lc, _) -> Lc.equal w_lc r_lc) (completed_writes ops op.key)
                with
                | Some (_, w_end) when w_end <= r_end -> r_end -. w_end
                | _ -> 0.))
          | _ -> None)
        ops
    in
    let n = List.length ages in
    {
      S.reads = n;
      mean_age_ms = (if n = 0 then 0. else List.fold_left ( +. ) 0. ages /. float_of_int n);
      max_age_ms = List.fold_left (fun acc a -> if a > acc then a else acc) 0. ages;
    }

  let new_old_inversions ops =
    let keys = List.sort_uniq Key.compare (List.map (fun (o : H.op) -> o.key) ops) in
    List.concat_map
      (fun key ->
        (* The key's clocked completed reads, latest in history order
           first, sorted stably by response time. *)
        let sorted =
          List.rev
            (List.filter
               (fun (o : H.op) ->
                 o.kind = H.Read && Key.equal o.key key && Option.is_some o.responded
                 && Option.is_some o.lc)
               ops)
          |> List.stable_sort (fun (a : H.op) (b : H.op) ->
                 Option.compare Float.compare a.responded b.responded)
        in
        List.concat
          (List.mapi
             (fun i (second : H.op) ->
               List.concat
                 (List.mapi
                    (fun j (first : H.op) ->
                      match first.responded, first.lc, second.lc with
                      | Some first_end, Some first_lc, Some second_lc
                        when j < i && first_end <= second.invoked && Lc.(second_lc < first_lc) ->
                        [ { C.first_read = first; second_read = second; first_lc; second_lc } ]
                      | _ -> [])
                    sorted))
             sorted))
      keys
    |> List.sort (fun (a : C.inversion) b ->
           compare (a.first_read.id, a.second_read.id) (b.first_read.id, b.second_read.id))
end

(* {1 Comparison} *)

let opt_id = function Some (o : H.op) -> string_of_int o.id | None -> "-"

let show_check (r : C.report) =
  Format.asprintf "reads=%d checked=%d [%s]" r.C.reads r.C.checked
    (String.concat "; "
       (List.map
          (fun (v : C.violation) ->
            Format.asprintf "op%d ret=%s lc=%a %s" v.C.read.id (opt_id v.C.returned_write) Lc.pp
              v.C.expected_lc v.C.reason)
          r.C.violations))

let show_measure (r : S.report) =
  Printf.sprintf "checked=%d [%s] max=%h mean=%h vmax=%d" r.S.checked
    (String.concat "; "
       (List.map
          (fun (s : S.stale_read) ->
            Printf.sprintf "op%d %h %d" s.S.read.id s.S.behind_ms s.S.versions_behind)
          r.S.stale))
    r.S.max_behind_ms r.S.mean_behind_ms r.S.max_versions_behind

let show_age (a : S.age_report) =
  Printf.sprintf "reads=%d mean=%h max=%h" a.S.reads a.S.mean_age_ms a.S.max_age_ms

let show_inversions invs =
  String.concat "; "
    (List.map
       (fun (i : C.inversion) ->
         Format.asprintf "op%d(%a)<op%d(%a)" i.C.first_read.id Lc.pp i.C.first_lc
           i.C.second_read.id Lc.pp i.C.second_lc)
       invs)

(* Every report, rendered field by field (floats in hex, so equal
   strings mean bit-identical figures), and the first that differs. *)
let mismatch ops =
  let pairs =
    [
      ("check", show_check (Oracle.check ops), show_check (C.check ops));
      ("measure", show_measure (Oracle.measure ops), show_measure (S.measure ops));
      ("measure_age", show_age (Oracle.measure_age ops), show_age (S.measure_age ops));
      ( "new_old_inversions",
        show_inversions (Oracle.new_old_inversions ops),
        show_inversions (C.new_old_inversions ops) );
    ]
  in
  List.find_opt (fun (_, expected, got) -> not (String.equal expected got)) pairs

(* Structural equality of the whole reports, the ops they carry included. *)
let same_reports ops =
  compare (Oracle.check ops) (C.check ops) = 0
  && compare (Oracle.measure ops) (S.measure ops) = 0
  && compare (Oracle.measure_age ops) (S.measure_age ops) = 0
  && compare (Oracle.new_old_inversions ops) (C.new_old_inversions ops) = 0

(* {1 Random histories} *)

(* Up to 3 keys and 40 ops; instants are small integers and clocks come
   from a 5 x 2 grid, so equal response/invocation times, zero-length
   ops and equal clocks are common. Writes may never complete or be
   given up, and now and then reuse an earlier write's value; reads may
   return the initial value, a value written to another key, or one
   never written at all. *)
let history_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let clock = map2 (fun count node -> Lc.make ~count ~node) (int_range 1 5) (int_range 0 1) in
    let op id =
      let* key = map (fun index -> Key.make ~volume:0 ~index) (int_range 0 2) in
      let* is_write = bool in
      let* invoked = map float_of_int (int_range 0 20) in
      let* length = map float_of_int (int_range 0 6) in
      let* outcome = int_range 0 9 in
      let* lc = clock in
      let* pick = int_range 0 9 in
      let* target = int_range 0 39 in
      let* gave_up_at = map (fun d -> invoked +. float_of_int d) (int_range 1 8) in
      let pending ~value =
        { H.id; client = id mod 3; key; kind = (if is_write then H.Write else H.Read); value;
          lc = None; invoked; responded = None; gave_up = None }
      in
      return (fun (written : H.op array) ->
          if is_write then
            let value =
              if pick = 0 && Array.length written > 0 then
                written.(target mod Array.length written).value
              else Printf.sprintf "w%d" id
            in
            let w = pending ~value in
            match outcome with
            | 0 | 1 -> w
            | 2 -> { w with gave_up = Some gave_up_at }
            | _ -> { w with lc = Some lc; responded = Some (invoked +. length) }
          else
            match outcome with
            | 0 -> pending ~value:""
            | 1 -> { (pending ~value:"") with gave_up = Some gave_up_at }
            | _ ->
              let value, read_lc =
                match pick with
                | 0 | 1 -> ("", Lc.zero)
                | 2 -> ("never-written", lc)
                | _ when Array.length written = 0 -> ("", Lc.zero)
                | _ ->
                  let w = written.(target mod Array.length written) in
                  (w.value, Option.value w.lc ~default:lc)
              in
              { (pending ~value) with lc = Some read_lc; responded = Some (invoked +. length) })
    in
    let* makers = flatten_l (List.init n op) in
    return
      (List.rev
         (List.fold_left
            (fun acc make ->
              let written =
                Array.of_list (List.filter (fun (o : H.op) -> o.kind = H.Write) acc)
              in
              make written :: acc)
            [] makers)))

let show_op (o : H.op) =
  let t = function Some x -> Printf.sprintf "%g" x | None -> "-" in
  Format.asprintf "%d:%s k%d %S lc=%s [%g,%s] gave_up=%s" o.id
    (match o.kind with H.Read -> "R" | H.Write -> "W")
    (Key.index o.key) o.value
    (match o.lc with Some lc -> Format.asprintf "%a" Lc.pp lc | None -> "-")
    o.invoked (t o.responded) (t o.gave_up)

let history_arb =
  QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_op ops)) history_gen

let prop_reports_equal =
  QCheck.Test.make ~count:3000 ~name:"reports equal the quadratic oracle's" history_arb
    (fun ops ->
      match mismatch ops with
      | Some (what, expected, got) ->
        QCheck.Test.fail_reportf "%s:@.  oracle %s@.  fast   %s" what expected got
      | None -> same_reports ops)

(* {1 Driver histories} *)

(* Five paper protocols on 4 shared hot keys, a quarter writes, with a
   front-end failover; ROWA-Async reads stale data here. *)
let hot_keys =
  {
    Scenario.name = "oracle-hot-keys";
    version = 1;
    description = "4 hot shared keys, five paper protocols";
    protocols = [ "dqvl-paper"; "primary-backup"; "majority"; "rowa"; "rowa-async" ];
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 300;
    smoke_ops = 300;
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.25;
        locality = 1.0;
        sharing = Spec.Shared_uniform { objects = 4 };
      };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 8_000.;
    redirect_to_up = true;
    faults =
      [
        { Dq_harness.Driver.at_ms = 5_000.; action = `Crash 0 };
        { Dq_harness.Driver.at_ms = 15_000.; action = `Recover 0 };
      ];
  }

let test_driver_histories () =
  List.iter
    (fun (o : Scenario.outcome) ->
      let ops = o.Scenario.result.Dq_harness.Driver.history in
      (match mismatch ops with
      | Some (what, expected, got) ->
        Alcotest.failf "%s %s:\n  oracle %s\n  fast   %s" o.Scenario.protocol what expected got
      | None -> ());
      Alcotest.(check bool) (o.Scenario.protocol ^ " reports equal") true (same_reports ops);
      if String.equal o.Scenario.protocol "rowa-async" then begin
        Alcotest.(check bool) "rowa-async violates" true ((C.check ops).C.violations <> []);
        Alcotest.(check bool) "rowa-async reads stale" true ((S.measure ops).S.stale <> [])
      end)
    (Scenario.run ~seed:3L hot_keys)

let () =
  Alcotest.run "checker-oracle"
    [
      ("property", [ QCheck_alcotest.to_alcotest prop_reports_equal ]);
      ("driver", [ Alcotest.test_case "five protocols, hot keys" `Slow test_driver_histories ]);
    ]
