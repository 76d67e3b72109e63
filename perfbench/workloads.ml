(* The three workloads, their correctness checks and the metrics one
   iteration of each yields. An iteration runs a workload's whole
   shape once from its seed, so every iteration of a run repeats the
   same inputs: counts and virtual-time figures must agree between
   iterations (checked), and wall-time figures are reported as the
   median over iterations. *)

module Engine = Dq_sim.Engine
module Topology = Dq_net.Topology
module Spec = Dq_workload.Spec
module Driver = Dq_harness.Driver
module Registry = Dq_harness.Registry
module Regular_checker = Dq_harness.Regular_checker
module Staleness = Dq_harness.Staleness
module Sites = Dq_harness.Sites
module History = Dq_harness.History
module Scenario = Dq_bench.Scenario
module Bus = Dq_telemetry.Bus
module Event = Dq_telemetry.Event
module Metrics = Dq_telemetry.Metrics
module Aoi = Dq_telemetry.Aoi
module Histogram = Dq_util.Histogram
module Stats = Dq_util.Stats
module Pool = Dq_par.Pool

let now = Span.now

(* Correctness failures of the current run; any one makes the run
   incorrect and the command exit non-zero. *)
let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

type size = Full | Tiny

(* {1 Workload shapes} *)

let paper_five = [ "dqvl-paper"; "primary-backup"; "majority"; "rowa"; "rowa-async" ]

(* Server 0 fails and comes back while the clients run; requests for a
   down front end are redirected to a live one, and an op with no
   answer for 8 s counts as failed. This is what makes failed_op_frac
   non-zero on both closed-loop workloads. *)
let failover ~crash_ms ~recover_ms =
  [
    { Driver.at_ms = crash_ms; action = `Crash 0 };
    { Driver.at_ms = recover_ms; action = `Recover 0 };
  ]

let hot_keys =
  {
    Scenario.name = "bench-hot-keys";
    version = 1;
    description =
      "the dqr bench run path on 4 hot shared keys: offline checkers and telemetry sinks \
       take a large share of the wall time";
    protocols = paper_five;
    n_servers = 5;
    n_clients = 3;
    ops_per_client = 4000;
    smoke_ops = 40;
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
    faults = failover ~crash_ms:20_000. ~recover_ms:50_000.;
  }

let wide_keys =
  {
    Scenario.name = "figure-wide-keys";
    version = 1;
    description =
      "the figure path over 4096 Zipf keys at 9 sites with a failover: simulation \
       (engine, network, RPC, handlers) is nearly all the wall time";
    protocols = paper_five;
    n_servers = 9;
    n_clients = 9;
    ops_per_client = 1000;
    smoke_ops = 40;
    spec =
      {
        Spec.default with
        Spec.write_ratio = 0.05;
        locality = 0.9;
        sharing = Spec.Shared_zipf { objects = 4096; exponent = 0.8 };
      };
    value_pad = 0;
    wan_scale = 1.;
    timeout_ms = 8_000.;
    redirect_to_up = true;
    faults = failover ~crash_ms:10_000. ~recover_ms:130_000.;
  }

let sites_config size seed =
  {
    Sites.default with
    Sites.n_sites = 8;
    clients_per_site = 8;
    keys_per_site = 512;
    ops_per_client = (match size with Full -> 1500 | Tiny -> 30);
    loss = 0.1;
    crash_sites = 1;
    seed;
  }

let sites_why =
  "Sites.run on the site-partitioned PDES engine, pooled on nproc domains and against \
   its serial oracle: the only path through Pdes, Pnet and the domain pool"

(* {1 Shared measurement helpers} *)

(* Latency quantiles go through the latency histogram of a
   Dq_telemetry.Metrics instance (its buckets, Histogram.quantile's
   interpolation), as in dqr bench run's output. *)
let quantile samples q =
  if samples = [] then 0.
  else begin
    let m = Metrics.create () in
    List.iter (Metrics.record_latency m ~kind:"read") samples;
    Histogram.quantile (Metrics.read_latency m) q
  end

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let words_now () =
  let minor, promoted, _ = Gc.counters () in
  (minor, promoted)

(* The outcome of one iteration. [exact] holds the counts and
   virtual-time figures that must repeat between iterations. [rates]
   holds each end-to-end rate as (work done, seconds taken). *)
type iteration = {
  e2e : (string * float) list;
  rates : (string * (float * float)) list;
  exact : (string * float) list;
  attempted : int;
  failed : int;
}

(* GC counters over one iteration. Gc.counters is exact for the
   calling domain; Gc.quick_stat also covers the pool's domains but is
   only brought up to date at minor collections, so it is used for the
   words only where other domains allocate ([all_domains]). *)
type gc = { minor_words : float; promoted_words : float; minor_collections : float; major_collections : float }

type gc_point = { stat : Gc.stat; words : float * float }

let gc_now () = { stat = Gc.quick_stat (); words = words_now () }

let gc_between ~all_domains a b =
  let minor_words, promoted_words =
    if all_domains then (b.stat.Gc.minor_words -. a.stat.Gc.minor_words, b.stat.Gc.promoted_words -. a.stat.Gc.promoted_words)
    else (fst b.words -. fst a.words, snd b.words -. snd a.words)
  in
  {
    minor_words;
    promoted_words;
    minor_collections = fi (b.stat.Gc.minor_collections - a.stat.Gc.minor_collections);
    major_collections = fi (b.stat.Gc.major_collections - a.stat.Gc.major_collections);
  }

(* One iteration with what the per-layer metrics need from it:
   its wall time, its GC counters and the workload's own detail. *)
type 'detail pass = { it : iteration; wall : float; gc : gc; detail : 'detail }

(* Runs [f] with span recording on, from an empty record. *)
let recording f =
  Span.recorded := [];
  Span.enabled := true;
  Fun.protect ~finally:(fun () -> Span.enabled := false) f

(* {1 Closed-loop workloads (Driver)} *)

type sinks = { metrics : Metrics.t; aoi : Aoi.t option; metrics_ns : int ref; aoi_ns : int ref; rpc_calls : int ref }

(* A telemetry sink with its closure timed. *)
let timed ns sink ~time_ms ev =
  let t0 = Monotonic_clock.now () in
  sink ~time_ms ev;
  ns := !ns + Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0)

(* What the metrics need from one protocol's run. The history is
   dropped with the cell, so an iteration holds one history at a time. *)
type cell = {
  protocol : string;
  issued : int;
  completed : int;
  failed : int;
  writes_completed : int;
  history_ops : int;
  remote_messages : int;
  remote_bytes : int;
  read_p50 : float;
  read_p99 : float;
  write_p50 : float;
  events : int;
  setup_s : float;
  build_s : float;
  driver_s : float;
  regular_s : float;
  staleness_s : float;
  age_s : float;
  driver_minor : float;
  driver_promoted : float;
  sinks : sinks option;
  ok : bool;
}

(* One protocol through build -> Driver.run_with_events -> offline
   checks. [bus] subscribes a Metrics sink; [freshness] adds the AoI
   sink and the staleness oracles it is checked against; [wrap] times
   the sink closures and counts RPC calls in the Metrics one. *)
let run_cell ~wrap ~bus ~freshness (sc : Scenario.t) ~ops ~seed protocol =
  let builder =
    match Registry.find protocol with
    | Some b -> b
    | None -> failwith ("unknown protocol " ^ protocol)
  in
  Span.set_run (sc.Scenario.name ^ "/" ^ protocol);
  Span.with_ "cell" @@ fun () ->
  let t0 = now () in
  let engine, topology, instance, sinks, build_s =
    Span.with_ "setup" @@ fun () ->
    let engine = Engine.create ~seed () in
    let topology =
      Topology.make ~n_servers:sc.Scenario.n_servers ~n_clients:sc.Scenario.n_clients
        ~wan_ms:(86. *. sc.Scenario.wan_scale) ~server_ms:(80. *. sc.Scenario.wan_scale) ()
    in
    let sinks =
      if not bus then None
      else begin
        let b = Engine.telemetry engine in
        let s =
          {
            metrics = Metrics.create ();
            aoi = (if freshness then Some (Aoi.create ()) else None);
            metrics_ns = ref 0;
            aoi_ns = ref 0;
            rpc_calls = ref 0;
          }
        in
        if wrap then begin
          let metrics_sink = Metrics.sink s.metrics and calls = s.rpc_calls in
          Bus.subscribe b (fun ~time_ms ev ->
              (match ev with Event.Rpc_round { round = 0; _ } -> incr calls | _ -> ());
              timed s.metrics_ns metrics_sink ~time_ms ev);
          Option.iter (fun a -> Bus.subscribe b (timed s.aoi_ns (Aoi.sink a))) s.aoi
        end
        else begin
          Bus.subscribe b (Metrics.sink s.metrics);
          Option.iter (fun a -> Bus.subscribe b (Aoi.sink a)) s.aoi
        end;
        Some s
      end
    in
    let b0 = now () in
    let instance = Span.with_ "registry.build" (fun () -> builder.Registry.build engine topology ()) in
    (engine, topology, instance, sinks, now () -. b0)
  in
  let setup_s = now () -. t0 in
  let config =
    {
      (Driver.default_config sc.Scenario.spec) with
      Driver.ops_per_client = ops;
      timeout_ms = sc.Scenario.timeout_ms;
      redirect_to_up = sc.Scenario.redirect_to_up;
      value_pad = sc.Scenario.value_pad;
    }
  in
  let m0, p0 = words_now () in
  let d0 = now () in
  let result =
    Span.with_ "driver.run" @@ fun () ->
    Driver.run_with_events engine topology instance.Registry.api config ~events:sc.Scenario.faults
      ~on_net_event:(function
        | `Partition groups -> instance.Registry.partition groups
        | `Heal -> instance.Registry.heal ())
  in
  let driver_s = now () -. d0 in
  let m1, p1 = words_now () in
  let history = result.Driver.history in
  let timed_check name f =
    let c0 = now () in
    let v = Span.with_ name f in
    (v, now () -. c0)
  in
  let report, regular_s = timed_check "checker.regular" (fun () -> Regular_checker.check history) in
  let ok = ref true in
  let violations = List.length report.Regular_checker.violations in
  if violations > 0 && not (String.equal protocol "rowa-async") then begin
    ok := false;
    fail "%s/%s: %d regular-semantics violations" sc.Scenario.name protocol violations
  end;
  if result.Driver.issued <> result.Driver.completed + result.Driver.failed then begin
    ok := false;
    fail "%s/%s: issued %d <> completed %d + failed %d" sc.Scenario.name protocol
      result.Driver.issued result.Driver.completed result.Driver.failed
  end;
  let staleness_s, age_s =
    if not freshness then (0., 0.)
    else begin
      let oracle, staleness_s = timed_check "staleness.measure" (fun () -> Staleness.measure history) in
      let _age, age_s = timed_check "staleness.measure_age" (fun () -> Staleness.measure_age history) in
      (* The online AoI sink and the offline oracle define staleness
         the same way; their exact counts must agree. *)
      Option.iter
        (fun s ->
          Option.iter
            (fun aoi ->
              let a = Aoi.summary aoi in
              if
                a.Aoi.reads_checked <> oracle.Staleness.checked
                || a.Aoi.stale_reads <> List.length oracle.Staleness.stale
                || a.Aoi.max_versions_behind <> oracle.Staleness.max_versions_behind
              then begin
                ok := false;
                fail "%s/%s: AoI sink disagrees with the staleness oracle (reads %d/%d, stale %d/%d)"
                  sc.Scenario.name protocol a.Aoi.reads_checked oracle.Staleness.checked
                  a.Aoi.stale_reads (List.length oracle.Staleness.stale)
              end)
            s.aoi)
        sinks;
      (staleness_s, age_s)
    end
  in
  let read_ms = Stats.to_list result.Driver.read_latency in
  {
    protocol;
    issued = result.Driver.issued;
    completed = result.Driver.completed;
    failed = result.Driver.failed;
    writes_completed =
      List.length
        (List.filter
           (fun (o : History.op) -> o.History.kind = History.Write && Option.is_some o.History.responded)
           history);
    history_ops = List.length history;
    remote_messages = result.Driver.remote_messages;
    remote_bytes = result.Driver.remote_bytes;
    read_p50 = quantile read_ms 0.5;
    read_p99 = quantile read_ms 0.99;
    write_p50 = quantile (Stats.to_list result.Driver.write_latency) 0.5;
    events = Engine.events_executed engine;
    setup_s;
    build_s;
    driver_s;
    regular_s;
    staleness_s;
    age_s;
    driver_minor = m1 -. m0;
    driver_promoted = p1 -. p0;
    sinks;
    ok = !ok;
  }

let sum f cells = List.fold_left (fun acc c -> acc +. f c) 0. cells

let check_s c = c.regular_s +. c.staleness_s +. c.age_s

let is_hot (sc : Scenario.t) = String.equal sc.Scenario.name hot_keys.Scenario.name

let dqvl_cell cells =
  match List.find_opt (fun c -> String.equal c.protocol "dqvl-paper") cells with
  | Some c -> c
  | None -> failwith "workload without dqvl-paper"

(* How a closed-loop iteration is instrumented. [Plain] is the program
   the end-to-end metrics measure: bench-hot-keys subscribes the
   Metrics and AoI sinks, figure-wide-keys subscribes none. [Traced]
   keeps those subscriptions and wraps them (see [run_cell]); the
   caller turns span recording on. [Counted] also subscribes a wrapped
   Metrics sink on figure-wide-keys, for its DQVL and RPC event counts. *)
type mode = Plain | Traced | Counted

let closed_loop_iteration ~mode ~size (sc : Scenario.t) ~seed =
  let freshness = is_hot sc in
  let bus = freshness || mode = Counted in
  let ops = match size with Full -> sc.Scenario.ops_per_client | Tiny -> sc.Scenario.smoke_ops in
  let g0 = gc_now () in
  let t0 = now () in
  let cells =
    Span.set_run sc.Scenario.name;
    Span.with_ "iteration" @@ fun () ->
    List.map (run_cell ~wrap:(mode <> Plain) ~bus ~freshness sc ~ops ~seed) sc.Scenario.protocols
  in
  let wall = now () -. t0 in
  let gc = gc_between ~all_domains:false g0 (gc_now ()) in
  let completed = sum (fun c -> fi c.completed) cells in
  let issued = sum (fun c -> fi c.issued) cells in
  let failed = sum (fun c -> fi c.failed) cells in
  let sim_s = sum (fun c -> c.driver_s) cells in
  let dqvl = dqvl_cell cells in
  let dqvl_e2e =
    [
      ("read_p50_ms", dqvl.read_p50);
      ("read_p99_ms", dqvl.read_p99);
      ("write_p50_ms", dqvl.write_p50);
      ("msgs_per_op", ratio (fi dqvl.remote_messages) (fi dqvl.completed));
    ]
  in
  let e2e =
    [
      ("setup_s", sum (fun c -> c.setup_s) cells);
      ("minor_words_per_op", ratio gc.minor_words completed);
      ("failed_op_frac", ratio failed issued);
    ]
    @ dqvl_e2e
  in
  let exact =
    ("failed_op_frac", ratio failed issued)
    :: dqvl_e2e
    @ List.concat_map
        (fun c ->
          [
            ("events." ^ c.protocol, fi c.events);
            ("msgs." ^ c.protocol, fi c.remote_messages);
            ("completed." ^ c.protocol, fi c.completed);
          ])
        cells
  in
  let it =
    {
      e2e;
      rates =
        [
          ("ops_per_s", (completed, sim_s +. sum check_s cells));
          ("events_per_s", (sum (fun c -> fi c.events) cells, sim_s));
        ];
      exact;
      attempted = List.length cells;
      failed = List.length (List.filter (fun c -> not c.ok) cells);
    }
  in
  { it; wall; gc; detail = cells }

(* The per-layer metrics of one round. Wall-time and GC figures come
   from [plain], the program the end-to-end metrics measure; sink
   timings and telemetry event counts from [traced], which has the same
   subscriptions; DQVL and RPC event counts from [counted]. *)
let closed_loop_layers ~plain ~traced ~counted =
  let cells = plain.detail in
  let completed = sum (fun c -> fi c.completed) cells in
  let sink_total pass f =
    List.fold_left (fun acc s -> acc +. f s) 0. (List.filter_map (fun c -> c.sinks) pass.detail)
  in
  let dqvl = dqvl_cell counted.detail in
  let counts k = match dqvl.sinks with Some s -> fi (Metrics.event_count s.metrics k) | None -> 0. in
  let dqvl_ops = fi dqvl.completed and dqvl_writes = fi dqvl.writes_completed in
  let rounds = sink_total counted (fun s -> fi (Metrics.event_count s.metrics "rpc_round")) in
  let calls = sink_total counted (fun s -> fi !(s.rpc_calls)) in
  let bus_events =
    sink_total traced (fun s -> List.fold_left (fun acc (_, n) -> acc +. fi n) 0. (Metrics.event_counts s.metrics))
  in
  let checks = sum check_s cells in
  let checked_ops = sum (fun c -> fi c.history_ops) cells in
  let per_protocol =
    List.concat_map
      (fun c ->
        let ops = fi c.completed in
        let p = c.protocol in
        [
          ("driver.ops_per_s." ^ p, ratio ops c.driver_s);
          ("driver.minor_words_per_op." ^ p, ratio c.driver_minor ops);
          ("driver.promoted_words_per_op." ^ p, ratio c.driver_promoted ops);
          ("sim.events_per_op." ^ p, ratio (fi c.events) ops);
          ("net.msgs_per_op." ^ p, ratio (fi c.remote_messages) ops);
          ("net.bytes_per_op." ^ p, ratio (fi c.remote_bytes) ops);
        ])
      cells
  in
  [
    ("registry.build_s", sum (fun c -> c.build_s) cells);
    ("dqvl.oqs_hit_frac", ratio (counts "read_hit") (counts "read_hit" +. counts "read_miss"));
    ("dqvl.inval_through_per_write", ratio (counts "inval_through") dqvl_writes);
    ("dqvl.inval_suppressed_per_write", ratio (counts "inval_suppressed") dqvl_writes);
    ("dqvl.inval_delayed_per_write", ratio (counts "inval_delayed") dqvl_writes);
    ("dqvl.lease_grants_per_op", ratio (counts "lease_granted") dqvl_ops);
    ("rpc.rounds_per_call", ratio rounds calls);
    ("rpc.give_ups", sink_total counted (fun s -> fi (Metrics.event_count s.metrics "rpc_give_up")));
    ("telemetry.events_per_op", ratio bus_events completed);
    ("telemetry.metrics_sink_s", sink_total traced (fun s -> fi !(s.metrics_ns) *. 1e-9));
    ("telemetry.aoi_sink_s", sink_total traced (fun s -> fi !(s.aoi_ns) *. 1e-9));
    ("checker.regular_s", sum (fun c -> c.regular_s) cells);
    ("checker.staleness_s", sum (fun c -> c.staleness_s) cells);
    ("checker.age_s", sum (fun c -> c.age_s) cells);
    ("checker.ops_per_s", ratio checked_ops checks);
    ("checker.share", ratio checks plain.wall);
    ("gc.minor_collections", plain.gc.minor_collections);
    ("gc.major_collections", plain.gc.major_collections);
    ("gc.promoted_words_per_op", ratio plain.gc.promoted_words completed);
    ("trace.overhead_frac", ratio traced.wall plain.wall -. 1.);
  ]
  @ per_protocol

(* One round of the traced run: the iterations it ran (each is
   checked) and its per-layer metrics. Spans are recorded in the traced
   iteration only. *)
let closed_loop_round ~size (sc : Scenario.t) ~seed =
  let plain = closed_loop_iteration ~mode:Plain ~size sc ~seed in
  let traced = recording (fun () -> closed_loop_iteration ~mode:Traced ~size sc ~seed) in
  let counted, extra =
    if is_hot sc then (traced, []) else
      let c = closed_loop_iteration ~mode:Counted ~size sc ~seed in
      (c, [ c.it ])
  in
  (* DQVL's Driver wall with the bus on (bench-hot-keys' program)
     over a run of it with the bus off. *)
  let telemetry_overhead =
    if not (is_hot sc) then 0.
    else begin
      let ops = match size with Full -> sc.Scenario.ops_per_client | Tiny -> sc.Scenario.smoke_ops in
      let off = run_cell ~wrap:false ~bus:false ~freshness:false sc ~ops ~seed "dqvl-paper" in
      ratio (dqvl_cell plain.detail).driver_s off.driver_s -. 1.
    end
  in
  ( plain.it :: traced.it :: extra,
    ("telemetry.overhead_frac", telemetry_overhead) :: closed_loop_layers ~plain ~traced ~counted )

(* {1 pdes-sites} *)

let completed_latencies (history : History.op list) kind =
  List.filter_map
    (fun (o : History.op) ->
      match o.History.responded with
      | Some t when o.History.kind = kind -> Some (t -. o.History.invoked)
      | _ -> None)
    history

type sites = { pooled : Sites.result; pooled_s : float; serial_s : float; check_s : float }

(* One pooled and one serial Sites.run, compared. [retime_check] runs
   Regular_checker.check once more on the pooled history, outside the
   iteration's wall time (traced run only). *)
let pdes_iteration ~retime_check cfg =
  Span.set_run "pdes-sites";
  let jobs = Domain.recommended_domain_count () in
  let g0 = gc_now () in
  let t0 = now () in
  let setup_s = ref 0. and pooled_s = ref 0. in
  let pooled, serial, serial_s, same, check_s =
    Span.with_ "iteration" @@ fun () ->
    let pooled =
      Span.with_ "pool.with_pool" @@ fun () ->
      Pool.with_pool ~jobs (fun pool ->
          setup_s := now () -. t0;
          let t1 = now () in
          let r = Span.with_ "sites.run.pooled" (fun () -> Sites.run ~pool cfg) in
          pooled_s := now () -. t1;
          r)
    in
    let t2 = now () in
    let serial = Span.with_ "sites.run.serial" (fun () -> Sites.run cfg) in
    let serial_s = now () -. t2 in
    let same = Span.with_ "oracle.compare" (fun () -> compare pooled serial = 0) in
    let check_s =
      if not retime_check then 0.
      else begin
        let c0 = now () in
        ignore (Span.with_ "checker.regular" (fun () -> Regular_checker.check pooled.Sites.history));
        now () -. c0
      end
    in
    (pooled, serial, serial_s, same, check_s)
  in
  let wall = now () -. t0 -. !setup_s -. check_s in
  let gc = gc_between ~all_domains:true g0 (gc_now ()) in
  let issued = cfg.Sites.n_sites * cfg.Sites.clients_per_site * cfg.Sites.ops_per_client in
  let failed = ref 0 in
  if not same then begin
    incr failed;
    fail "pdes-sites: pooled Sites.run result differs from the serial oracle"
  end;
  List.iter
    (fun (label, (r : Sites.result)) ->
      if r.Sites.violations > 0 then begin
        incr failed;
        fail "pdes-sites/%s: %d regular-semantics violations" label r.Sites.violations
      end;
      if issued <> r.Sites.ops_completed + r.Sites.ops_gave_up then begin
        incr failed;
        fail "pdes-sites/%s: issued %d <> completed %d + failed %d" label issued
          r.Sites.ops_completed r.Sites.ops_gave_up
      end)
    [ ("pooled", pooled); ("serial", serial) ];
  let ops = fi pooled.Sites.ops_completed in
  (* Both runs complete the workload's ops; the checked run is both. *)
  let run_ops = 2. *. ops in
  let reads = completed_latencies pooled.Sites.history History.Read in
  let writes = completed_latencies pooled.Sites.history History.Write in
  let vt =
    [
      ("read_p50_ms", quantile reads 0.5);
      ("read_p99_ms", quantile reads 0.99);
      ("write_p50_ms", quantile writes 0.5);
      ("msgs_per_op", ratio (fi pooled.Sites.msgs_sent) ops);
    ]
  in
  let e2e =
    [
      ("setup_s", !setup_s);
      ("minor_words_per_op", ratio gc.minor_words run_ops);
      ("failed_op_frac", ratio (fi pooled.Sites.ops_gave_up) (fi issued));
    ]
    @ vt
  in
  let exact =
    (("failed_op_frac", ratio (fi pooled.Sites.ops_gave_up) (fi issued)) :: vt)
    @ [
        ("events", fi pooled.Sites.events);
        ("windows", fi pooled.Sites.windows);
        ("msgs", fi pooled.Sites.msgs_sent);
        ("completed", ops);
      ]
  in
  let rates = [ ("ops_per_s", (run_ops, wall)); ("events_per_s", (fi pooled.Sites.events, !pooled_s)) ] in
  {
    it = { e2e; rates; exact; attempted = 2; failed = !failed };
    wall;
    gc;
    detail = { pooled; pooled_s = !pooled_s; serial_s; check_s };
  }

(* One round of the traced run, as [closed_loop_round]. Wall-time and
   GC figures come from the plain iteration; the re-timed check from
   the traced one. [checker.share] is that check over the plain
   iteration's wall (pooled run, serial run and their comparison). *)
let pdes_round cfg =
  let plain = pdes_iteration ~retime_check:false cfg in
  let traced = recording (fun () -> pdes_iteration ~retime_check:true cfg) in
  let p = plain.detail and check_s = traced.detail.check_s in
  let pooled = p.pooled in
  let ops = fi pooled.Sites.ops_completed in
  ( [ plain.it; traced.it ],
    [
      ("pdes.pooled_s", p.pooled_s);
      ("pdes.serial_s", p.serial_s);
      ("pdes.speedup", ratio p.serial_s p.pooled_s);
      ("pdes.windows", fi pooled.Sites.windows);
      ("pdes.events_per_window", ratio (fi pooled.Sites.events) (fi pooled.Sites.windows));
      ("pnet.msgs_per_op", ratio (fi pooled.Sites.msgs_sent) ops);
      ("pnet.drop_frac", ratio (fi pooled.Sites.msgs_dropped) (fi pooled.Sites.msgs_sent));
      ("pdes.check_s", check_s);
      ("checker.regular_s", check_s);
      ("checker.ops_per_s", ratio (fi (List.length pooled.Sites.history)) check_s);
      ("checker.share", ratio check_s plain.wall);
      ("gc.minor_collections", plain.gc.minor_collections);
      ("gc.major_collections", plain.gc.major_collections);
      ("gc.promoted_words_per_op", ratio plain.gc.promoted_words (2. *. ops));
      ("trace.overhead_frac", ratio traced.wall plain.wall -. 1.);
    ] )
