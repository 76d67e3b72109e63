(* The benchmark harness: regenerates every figure of the paper's
   evaluation (Section 4) and every ablation, in the order of
   [Dq_harness.Render.catalogue], then runs Bechamel microbenchmarks -
   one Test.make per figure (measuring the computation that regenerates
   it) plus microbenchmarks of the hot paths.

   Usage: main.exe [-j N] [--smoke] [--out BENCH_<n>.json]

   [-j N] sizes the experiment worker pool (default: DQ_JOBS, else the
   machine's recommended domain count). With N > 1 every figure is
   regenerated a second time on the pool and the serial/parallel
   wall-clocks land in a machine-readable BENCH_<n>.json so the perf
   trajectory is tracked across PRs. [--smoke] runs a tiny-op sanity pass
   (serial vs parallel bit-equality) and exits. *)

module E = Dq_harness.Experiment
module Render = Dq_harness.Render
module Sites = Dq_harness.Sites
module Table = Dq_util.Table
open Bechamel
open Toolkit

let section = Render.print_heading

(* --- bechamel microbenchmarks -------------------------------------------- *)

let engine_churn () =
  let engine = Dq_sim.Engine.create () in
  for i = 1 to 1_000 do
    ignore (Dq_sim.Engine.schedule engine ~delay:(float_of_int (i mod 97)) (fun () -> ()))
  done;
  Dq_sim.Engine.run engine

let dqvl_sim ~ops () =
  let engine = Dq_sim.Engine.create ~seed:7L () in
  let topology = E.paper_topology () in
  let builder = Dq_harness.Registry.dqvl ~volume_lease_ms:1_000. ~proactive_renew:false () in
  let instance = builder.Dq_harness.Registry.build engine topology () in
  let spec = Dq_workload.Spec.default in
  let config =
    { (Dq_harness.Driver.default_config spec) with Dq_harness.Driver.ops_per_client = ops }
  in
  ignore (Dq_harness.Driver.run engine topology instance.Dq_harness.Registry.api config)

(* The offline checkers' input: a 12k-op DQVL history on 4 hot shared
   keys (3 clients x 4000 ops, a quarter of them writes). *)
let hot_key_history () =
  let engine = Dq_sim.Engine.create ~seed:3L () in
  let topology = E.paper_topology ~n_servers:5 () in
  let builder = Dq_harness.Registry.dqvl ~volume_lease_ms:1_000. ~proactive_renew:false () in
  let instance = builder.Dq_harness.Registry.build engine topology () in
  let spec =
    {
      Dq_workload.Spec.default with
      Dq_workload.Spec.write_ratio = 0.25;
      locality = 1.0;
      sharing = Dq_workload.Spec.Shared_uniform { objects = 4 };
    }
  in
  let config =
    { (Dq_harness.Driver.default_config spec) with Dq_harness.Driver.ops_per_client = 4_000 }
  in
  (Dq_harness.Driver.run engine topology instance.Dq_harness.Registry.api config)
    .Dq_harness.Driver.history

let tests () =
  (* Built once, outside the measured closures. *)
  let history = hot_key_history () in
  Test.make_grouped ~name:"dual-quorum" ~fmt:"%s %s"
    [
      (* One Test.make per figure: the cost of regenerating it. *)
      Test.make ~name:"fig6a" (Staged.stage (fun () -> ignore (E.fig6a ~ops:30 ())));
      Test.make ~name:"fig6b"
        (Staged.stage (fun () -> ignore (E.fig6b ~ops:15 ~write_ratios:[ 0.05; 0.5 ] ())));
      Test.make ~name:"fig7a" (Staged.stage (fun () -> ignore (E.fig7a ~ops:30 ())));
      Test.make ~name:"fig7b"
        (Staged.stage (fun () -> ignore (E.fig7b ~ops:15 ~localities:[ 0.5; 1.0 ] ())));
      Test.make ~name:"fig8a" (Staged.stage (fun () -> ignore (E.fig8a ())));
      Test.make ~name:"fig8b" (Staged.stage (fun () -> ignore (E.fig8b ())));
      Test.make ~name:"fig9a" (Staged.stage (fun () -> ignore (E.fig9a ())));
      Test.make ~name:"fig9b" (Staged.stage (fun () -> ignore (E.fig9b ())));
      (* Hot paths. *)
      Test.make ~name:"engine 1k events" (Staged.stage engine_churn);
      Test.make ~name:"dqvl 60-op simulation" (Staged.stage (dqvl_sim ~ops:20));
      Test.make ~name:"availability enum grid 4x4"
        (Staged.stage (fun () ->
             let qs = Dq_quorum.Quorum_system.grid ~rows:4 ~cols:4 (List.init 16 Fun.id) in
             ignore
               (Dq_quorum.Availability.unavailability qs ~mode:Dq_quorum.Availability.Write
                  ~p:0.01)));
      Test.make ~name:"regular check 12k-op hot-key history"
        (Staged.stage (fun () -> ignore (Dq_harness.Regular_checker.check history)));
      Test.make ~name:"staleness measure 12k-op hot-key history"
        (Staged.stage (fun () -> ignore (Dq_harness.Staleness.measure history)));
    ]

let run_benchmarks () =
  section "Bechamel microbenchmarks (ns per run, OLS fit)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:(Some 10) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table = Table.create ~header:[ "benchmark"; "ns/run"; "r^2" ] in
  let rows =
    Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let measured =
    List.map
      (fun (name, ols_result) ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> Some x
          | Some [] | None -> None
        in
        let r2 = Analyze.OLS.r_square ols_result in
        (name, ns, r2))
      rows
  in
  List.iter
    (fun (name, ns, r2) ->
      let fmt_opt f = function Some x -> Printf.sprintf f x | None -> "-" in
      Table.add_row table [ name; fmt_opt "%.0f" ns; fmt_opt "%.3f" r2 ])
    measured;
  Table.print table;
  measured

(* --- figure regeneration wall-clock, serial vs parallel ----------------- *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* --- advisory guard ------------------------------------------------------ *)

(* Parallel wall-clocks taken on a single-core host measure scheduling
   overhead, not speedup. Mark them so downstream tooling never treats
   them as a perf regression/claim. *)
let cores = Domain.recommended_domain_count ()

let advisory ~jobs = jobs > 1 && cores <= 1

let warn_advisory ~jobs =
  if advisory ~jobs then
    Printf.eprintf
      "warning: -j %d requested but only %d core(s) available; parallel \
       timings are advisory (recorded with \"advisory\": true)\n%!"
      jobs cores

(* --- events per second: the PDES headline ------------------------------- *)

(* ~10^6-event site-partitioned workload (see lib/harness/sites.ml):
   8 sites x 8 closed-loop clients x 4000 ops. The serial and pooled
   runs are required to be bit-identical; throughput is reported for
   both so the headline captures the engine, not just the pool. *)
let eps_config =
  { Sites.default with n_sites = 8; clients_per_site = 8; ops_per_client = 4000 }

type eps = {
  workload_events : int;
  serial_eps : float;
  parallel_eps : float option;
}

let check_deterministic ~what (a : Sites.result) (b : Sites.result) =
  (* [compare]: histories contain floats, and the total order treats
     NaN = NaN (none are expected here anyway). *)
  if compare a b <> 0 then begin
    Printf.eprintf "%s: parallel PDES run differs from serial oracle\n%!" what;
    exit 1
  end;
  if a.Sites.violations <> 0 then begin
    Printf.eprintf "%s: %d regular-register violations\n%!" what a.Sites.violations;
    exit 1
  end

let run_events_per_sec ~jobs cfg =
  section "Events per second: site-partitioned PDES workload";
  let serial_res = ref None in
  let dt_serial = time_it (fun () -> serial_res := Some (Sites.run cfg)) in
  let serial_res = Option.get !serial_res in
  let serial_eps = float_of_int serial_res.Sites.events /. dt_serial in
  let parallel_eps =
    if jobs <= 1 then None
    else begin
      let par_res = ref None in
      let dt =
        time_it (fun () ->
            Dq_par.Pool.with_pool ~jobs (fun pool ->
                par_res := Some (Sites.run ~pool cfg)))
      in
      check_deterministic ~what:"events_per_sec" serial_res (Option.get !par_res);
      Some (float_of_int serial_res.Sites.events /. dt)
    end
  in
  let t = Table.create ~header:[ "mode"; "events"; "events/s" ] in
  let row name eps =
    Table.add_row t
      [ name; string_of_int serial_res.Sites.events; Printf.sprintf "%.0f" eps ]
  in
  row "serial" serial_eps;
  Option.iter (row (Printf.sprintf "parallel -j %d" jobs)) parallel_eps;
  Table.print t;
  { workload_events = serial_res.Sites.events; serial_eps; parallel_eps }

(* --- BENCH_<n>.json ------------------------------------------------------ *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let json_opt = function Some x -> json_float x | None -> "null"

(* Parallel timings (per-figure, total, events_per_sec.parallel) carry
   "advisory": true when taken on a single-core host — they measure
   pool overhead there, not speedup. *)
let write_bench_json ~out ~jobs ~serial ~parallel ~micro ~events =
  let oc = open_out out in
  let adv = advisory ~jobs in
  (* ", \"advisory\": true" appended to entries holding a parallel
     timing taken on a single-core host; empty otherwise. *)
  let adv_field has_parallel = if adv && has_parallel then ", \"advisory\": true" else "" in
  let total xs = List.fold_left (fun acc (_, s) -> acc +. s) 0. xs in
  let parallel_of name = List.assoc_opt name parallel in
  let fig_entries =
    List.map
      (fun (name, serial_s) ->
        let par = parallel_of name in
        let speedup = Option.map (fun p -> serial_s /. p) par in
        Printf.sprintf
          "    {\"name\": \"%s\", \"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s%s}"
          (Dq_telemetry.Json_util.escape name) (json_float serial_s) (json_opt par) (json_opt speedup)
          (adv_field (par <> None)))
      serial
  in
  let micro_entries =
    List.map
      (fun (name, ns, r2) ->
        Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}"
          (Dq_telemetry.Json_util.escape name) (json_opt ns) (json_opt r2))
      micro
  in
  let total_serial = total serial in
  let total_parallel = if parallel = [] then None else Some (total parallel) in
  let events_json =
    match events with
    | None -> "null"
    | Some e ->
      Printf.sprintf
        "{\"workload_events\": %d, \"serial\": %s, \"parallel\": %s%s}"
        e.workload_events (json_float e.serial_eps) (json_opt e.parallel_eps)
        (adv_field (e.parallel_eps <> None))
  in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": 2,\n\
    \  \"generated_by\": \"bench/main.exe\",\n\
    \  \"jobs\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"advisory\": %b,\n\
    \  \"events_per_sec\": %s,\n\
    \  \"total\": {\"serial_s\": %s, \"parallel_s\": %s, \"speedup\": %s%s},\n\
    \  \"figures\": [\n%s\n  ],\n\
    \  \"microbench_ns_per_run\": [\n%s\n  ]\n\
     }\n"
    jobs cores adv events_json
    (json_float total_serial) (json_opt total_parallel)
    (json_opt (Option.map (fun p -> total_serial /. p) total_parallel))
    (adv_field (total_parallel <> None))
    (String.concat ",\n" fig_entries)
    (String.concat ",\n" micro_entries);
  close_out oc;
  Printf.printf "\nwrote %s\n" out

(* --- smoke mode (CI): tiny ops, parallel path, bit-equality check -------- *)

let run_smoke ~jobs ~out =
  section (Printf.sprintf "Smoke: tiny figures, serial vs -j %d (must be bit-identical)" jobs);
  E.set_jobs 1;
  let fig6a_serial = E.fig6a ~ops:20 () in
  let lease_serial = E.ablation_lease_len ~ops:15 () in
  E.set_jobs jobs;
  let fig6a_par = E.fig6a ~ops:20 () in
  let lease_par = E.ablation_lease_len ~ops:15 () in
  Table.print (Render.response_rows ~title:"protocol" fig6a_par);
  E.set_jobs 1;
  (* [compare] rather than [=]: a NaN mean (all ops inside the warmup
     window) is still equal to itself under the total order. *)
  if compare fig6a_serial fig6a_par = 0 && compare lease_serial lease_par = 0 then
    print_endline "smoke OK: parallel output bit-identical to serial"
  else begin
    prerr_endline "smoke FAILED: parallel output differs from serial";
    exit 1
  end;
  (* PDES determinism diff: the site-partitioned workload, with loss
     and a crash window, serial vs pooled — histories, merged metrics
     JSON, counters and checker verdicts must all match. *)
  section (Printf.sprintf "Smoke: PDES serial oracle vs -j %d (must be bit-identical)" jobs);
  let cfg = { Sites.default with loss = 0.02; crash_sites = 1; seed = 7L } in
  let serial = Sites.run cfg in
  let pooled = Dq_par.Pool.with_pool ~jobs (fun pool -> Sites.run ~pool cfg) in
  check_deterministic ~what:"smoke PDES" serial pooled;
  Printf.printf
    "smoke OK: PDES bit-identical (%d events, %d windows, %d ops, 0 violations)\n"
    serial.Sites.events serial.Sites.windows serial.Sites.ops_completed;
  (* A small throughput sample so CI validates the schema-2 JSON shape
     (figures/microbench stay empty in smoke mode). *)
  let eps = run_events_per_sec ~jobs { cfg with ops_per_client = 200 } in
  write_bench_json ~out ~jobs ~serial:[] ~parallel:[] ~micro:[] ~events:(Some eps)

(* --- entry point ---------------------------------------------------------- *)

let usage () =
  prerr_endline "usage: main.exe [-j N] [--smoke] [--out FILE.json]";
  exit 2

let parse_args () =
  let jobs = ref (Dq_par.Pool.default_jobs ()) in
  let smoke = ref false in
  let out = ref "BENCH_2.json" in
  let rec go = function
    | [] -> ()
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        go rest
      | _ -> usage ())
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--out" :: file :: rest ->
      out := file;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!jobs, !smoke, !out)

let () =
  let jobs, smoke, out = parse_args () in
  warn_advisory ~jobs;
  if smoke then run_smoke ~jobs ~out
  else begin
    (* Serial pass: print every figure and ablation of the catalogue and
       time it. *)
    E.set_jobs 1;
    let serial =
      List.map
        (fun (e : Render.entry) ->
          (e.Render.id, time_it (fun () -> List.iter Render.print_section (e.Render.run ()))))
        Render.catalogue
    in
    (* Parallel pass: regenerate silently on the pool and time it. *)
    let parallel =
      if jobs <= 1 then []
      else begin
        section (Printf.sprintf "Parallel regeneration wall-clock (-j %d)" jobs);
        E.set_jobs jobs;
        let t = Table.create ~header:[ "figure"; "serial s"; "parallel s"; "speedup" ] in
        let timed =
          List.map
            (fun (e : Render.entry) ->
              let name = e.Render.id in
              let dt = time_it (fun () -> ignore (e.Render.run ())) in
              let serial_s = List.assoc name serial in
              Table.add_row t
                [
                  name;
                  Printf.sprintf "%.2f" serial_s;
                  Printf.sprintf "%.2f" dt;
                  Printf.sprintf "%.2fx" (serial_s /. dt);
                ];
              (name, dt))
            Render.catalogue
        in
        Table.print t;
        timed
      end
    in
    E.set_jobs 1;
    let events = run_events_per_sec ~jobs eps_config in
    let micro = run_benchmarks () in
    write_bench_json ~out ~jobs ~serial ~parallel ~micro ~events:(Some events)
  end
