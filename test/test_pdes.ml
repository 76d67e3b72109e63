module Spsc = Dq_par.Spsc
module Pdes = Dq_sim.Pdes
module Engine = Dq_sim.Engine
module Sites = Dq_harness.Sites

(* {2 SPSC mailbox} *)

let test_spsc_fifo () =
  let q = Spsc.create ~dummy:(-1) 8 in
  for i = 0 to 5 do
    Alcotest.(check bool) "push" true (Spsc.push q i)
  done;
  Alcotest.(check int) "length" 6 (Spsc.length q);
  let out = ref [] in
  let n = Spsc.drain q (fun x -> out := x :: !out) in
  Alcotest.(check int) "drained count" 6 n;
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3; 4; 5 ] (List.rev !out);
  Alcotest.(check int) "empty after drain" 0 (Spsc.length q)

let test_spsc_full_and_wrap () =
  let q = Spsc.create ~dummy:(-1) 3 in
  Alcotest.(check int) "capacity rounded to power of two" 4 (Spsc.capacity q);
  for i = 0 to 3 do
    Alcotest.(check bool) "fill" true (Spsc.push q i)
  done;
  Alcotest.(check bool) "full rejects" false (Spsc.push q 99);
  Alcotest.(check (option int)) "pop" (Some 0) (Spsc.pop q);
  Alcotest.(check bool) "space again" true (Spsc.push q 4);
  let out = ref [] in
  ignore (Spsc.drain q (fun x -> out := x :: !out));
  Alcotest.(check (list int)) "wrap preserves order" [ 1; 2; 3; 4 ] (List.rev !out);
  Alcotest.(check (option int)) "pop empty" None (Spsc.pop q)

(* {2 PDES windows and cross-partition posts} *)

(* These two tests capture refs in post callbacks on purpose: they run
   the PDES without a pool, so everything executes on one domain and
   the R5 cross-domain race cannot occur. *)
let[@dqr.lint.allow "R5"] test_pdes_basic_exchange () =
  let pdes = Pdes.create ~lookahead:10. 2 in
  let log = ref [] in
  (* partition 0 pings partition 1 every 10 ms; partition 1 logs. *)
  let rec ping i =
    if i < 3 then begin
      let eng = Pdes.engine pdes 0 in
      let now = Engine.now eng in
      Pdes.post pdes ~src:0 ~dst:1 ~time:(now +. 10.) (fun () ->
          log := (i, Engine.now (Pdes.engine pdes 1)) :: !log);
      ignore (Engine.schedule eng ~delay:10. (fun () -> ping (i + 1)))
    end
  in
  ignore (Engine.schedule_at (Pdes.engine pdes 0) ~time:1. (fun () -> ping 0));
  Pdes.run pdes;
  let got = List.rev !log in
  Alcotest.(check int) "three pings" 3 (List.length got);
  List.iteri
    (fun i (j, at) ->
      Alcotest.(check int) "order" i j;
      Alcotest.(check (float 1e-9)) "arrival time" (11. +. (10. *. float_of_int i)) at)
    got;
  Alcotest.(check bool) "ran in windows" true (Pdes.windows pdes > 0);
  Alcotest.(check bool) "counted events" true (Pdes.total_events pdes >= 6)

let test_pdes_lookahead_guard () =
  let pdes = Pdes.create ~lookahead:10. 2 in
  ignore
    (Engine.schedule_at (Pdes.engine pdes 0) ~time:1. (fun () ->
         Alcotest.check_raises "post inside lookahead"
           (Invalid_argument
              "Pdes.post: arrival 6 from partition 0 at 1 violates lookahead 10")
           (fun () -> Pdes.post pdes ~src:0 ~dst:1 ~time:6. (fun () -> ()))));
  Pdes.run pdes

let[@dqr.lint.allow "R5"] test_pdes_same_time_posts_ordered_by_src () =
  (* Two partitions post to a third at the same virtual time: flush
     order must be (time, src, per-channel seq), whatever the
     execution interleaving. *)
  let pdes = Pdes.create ~lookahead:5. 3 in
  let log = ref [] in
  for src = 0 to 1 do
    ignore
      (Engine.schedule_at (Pdes.engine pdes src) ~time:1. (fun () ->
           Pdes.post pdes ~src ~dst:2 ~time:20. (fun () -> log := (src, 0) :: !log);
           Pdes.post pdes ~src ~dst:2 ~time:20. (fun () -> log := (src, 1) :: !log)))
  done;
  Pdes.run pdes;
  Alcotest.(check (list (pair int int)))
    "deterministic same-time merge"
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.rev !log)

(* {2 Serial-oracle determinism: the campaign} *)

let campaign_configs =
  let base = Sites.default in
  [
    ( "clean",
      { base with Sites.n_sites = 3; clients_per_site = 2; ops_per_client = 20; seed = 1L } );
    ( "lossy",
      {
        base with
        Sites.n_sites = 3;
        clients_per_site = 2;
        ops_per_client = 20;
        loss = 0.05;
        remote_ratio = 0.4;
        seed = 7L;
      } );
    ( "crashy",
      {
        base with
        Sites.n_sites = 4;
        clients_per_site = 2;
        ops_per_client = 25;
        crash_sites = 2;
        loss = 0.02;
        seed = 42L;
      } );
    ( "batched",
      {
        base with
        Sites.n_sites = 3;
        clients_per_site = 3;
        ops_per_client = 20;
        batch_ms = 5.;
        remote_ratio = 0.3;
        seed = 1337L;
      } );
  ]

let check_identical name (a : Sites.result) (b : Sites.result) =
  Alcotest.(check int) (name ^ ": completed") a.Sites.ops_completed b.Sites.ops_completed;
  Alcotest.(check int) (name ^ ": gave up") a.Sites.ops_gave_up b.Sites.ops_gave_up;
  Alcotest.(check int) (name ^ ": events") a.Sites.events b.Sites.events;
  Alcotest.(check int) (name ^ ": windows") a.Sites.windows b.Sites.windows;
  Alcotest.(check int) (name ^ ": sent") a.Sites.msgs_sent b.Sites.msgs_sent;
  Alcotest.(check int) (name ^ ": delivered") a.Sites.msgs_delivered b.Sites.msgs_delivered;
  Alcotest.(check int) (name ^ ": dropped") a.Sites.msgs_dropped b.Sites.msgs_dropped;
  Alcotest.(check string) (name ^ ": metrics JSON") a.Sites.metrics_json b.Sites.metrics_json;
  Alcotest.(check int) (name ^ ": checked reads") a.Sites.checked_reads b.Sites.checked_reads;
  Alcotest.(check int) (name ^ ": violations") a.Sites.violations b.Sites.violations;
  (* the histories themselves, interval for interval *)
  Alcotest.(check bool) (name ^ ": histories bit-identical") true
    (a.Sites.history = b.Sites.history)

let test_determinism_campaign () =
  Dq_par.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (name, cfg) ->
          let serial = Sites.run cfg in
          let parallel = Sites.run ~pool cfg in
          check_identical name serial parallel;
          (* the workload is regular by construction: the checker verdict
             is part of the oracle *)
          Alcotest.(check int) (name ^ ": regular") 0 serial.Sites.violations;
          Alcotest.(check bool) (name ^ ": progress") true (serial.Sites.ops_completed > 0))
        campaign_configs)

(* {2 Merged-history golden}

   One lossy, crashy, batched config pinned to the values the merge
   produced when it was a tuple-tagged sort on (invoked, partition,
   partition-local id). Intra-site batching rounds local deliveries to
   multiples of [batch_ms], so clients at different sites invoke at
   exactly the same time: the tie order across partitions is part of
   what the digest pins. *)

let merge_golden_config =
  {
    Sites.default with
    Sites.n_sites = 4;
    clients_per_site = 3;
    ops_per_client = 40;
    remote_ratio = 0.3;
    loss = 0.03;
    batch_ms = 5.;
    crash_sites = 2;
    seed = 2024L;
  }

let history_digest (ops : Dq_harness.History.op list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (op : Dq_harness.History.op) ->
      Printf.bprintf b "%d %d %h %s %s\n" op.id op.client op.invoked op.value
        (match op.lc with None -> "-" | Some lc -> Dq_storage.Lc.to_string lc))
    ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Ops invoked at the same instant as the previous op in merged order
   but issued by a client of another site (another partition). *)
let cross_partition_ties (cfg : Sites.config) (ops : Dq_harness.History.op list) =
  let site (op : Dq_harness.History.op) = (op.client - cfg.Sites.n_sites) / cfg.Sites.clients_per_site in
  let rec count acc = function
    | (a : Dq_harness.History.op) :: (b :: _ as rest) ->
      count (if Float.equal a.invoked b.invoked && site a <> site b then acc + 1 else acc) rest
    | [ _ ] | [] -> acc
  in
  count 0 ops

let test_merge_golden () =
  let cfg = merge_golden_config in
  let r = Sites.run cfg in
  let ops = r.Sites.history in
  Alcotest.(check int) "events" 2032 r.Sites.events;
  Alcotest.(check int) "windows" 49 r.Sites.windows;
  Alcotest.(check int) "ops completed" 475 r.Sites.ops_completed;
  Alcotest.(check int) "ops gave up" 5 r.Sites.ops_gave_up;
  Alcotest.(check string) "history digest" "9ab14e5c77ca0954f794c8e5cf22150f" (history_digest ops);
  Alcotest.(check bool) "cross-partition ties in invoked" true (cross_partition_ties cfg ops > 0);
  Alcotest.(check (list int)) "ids renumbered densely"
    (List.init (List.length ops) Fun.id)
    (List.map (fun (op : Dq_harness.History.op) -> op.id) ops);
  Dq_par.Pool.with_pool ~jobs:2 (fun pool ->
      check_identical "golden" r (Sites.run ~pool cfg))

let test_crash_windows_cause_give_ups () =
  let cfg =
    {
      Sites.default with
      Sites.n_sites = 2;
      clients_per_site = 2;
      ops_per_client = 40;
      crash_sites = 1;
      remote_ratio = 0.;
      seed = 5L;
    }
  in
  let r = Sites.run cfg in
  Alcotest.(check bool) "some ops failed during the outage" true (r.Sites.ops_gave_up > 0);
  Alcotest.(check bool) "messages were dropped" true (r.Sites.msgs_dropped > 0);
  Alcotest.(check int) "still regular" 0 r.Sites.violations

let test_batching_reduces_events () =
  let base =
    {
      Sites.default with
      Sites.n_sites = 2;
      clients_per_site = 4;
      ops_per_client = 30;
      remote_ratio = 0.;
      seed = 11L;
    }
  in
  let exact = Sites.run base in
  let batched = Sites.run { base with Sites.batch_ms = 10. } in
  Alcotest.(check int) "same ops complete" exact.Sites.ops_completed batched.Sites.ops_completed;
  Alcotest.(check bool) "batching does not lose messages" true
    (batched.Sites.msgs_delivered = exact.Sites.msgs_delivered);
  Alcotest.(check bool)
    (Printf.sprintf "fewer engine events (%d vs %d)" batched.Sites.events exact.Sites.events)
    true
    (batched.Sites.events <= exact.Sites.events)

let () =
  Alcotest.run "pdes"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo drain" `Quick test_spsc_fifo;
          Alcotest.test_case "full + wraparound" `Quick test_spsc_full_and_wrap;
        ] );
      ( "pdes",
        [
          Alcotest.test_case "cross-partition exchange" `Quick test_pdes_basic_exchange;
          Alcotest.test_case "lookahead guard" `Quick test_pdes_lookahead_guard;
          Alcotest.test_case "same-time merge order" `Quick test_pdes_same_time_posts_ordered_by_src;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "serial = parallel campaign" `Quick test_determinism_campaign;
          Alcotest.test_case "merged history golden" `Quick test_merge_golden;
          Alcotest.test_case "crash windows" `Quick test_crash_windows_cause_give_ups;
          Alcotest.test_case "batched delivery" `Quick test_batching_reduces_events;
        ] );
    ]
