(* Every metric the benchmark reports. Names, units and directions are
   read from BENCHMARK.json; this module adds what that file cannot
   hold: whether a metric repeats exactly at one seed and — for
   per-layer metrics — the end-to-end metric and workload it should
   move. A name BENCHMARK.json lists and this module does not know is
   an error. *)

module Json = Dq_bench.Json

type exact =
  | Always  (** a count or virtual-time figure: identical at one seed *)
  | Single_domain
      (** identical at one seed on the single-domain workloads only
          (allocation counts; the pooled run's domains allocate too) *)
  | Wall  (** measured wall time or a ratio built on it *)

type metric = { name : string; unit_ : string; better : string; exact : exact; moves : string }

let driver_moves = "ops_per_s, events_per_s, minor_words_per_op, top_heap_mb on figure-wide-keys (mostly) and bench-hot-keys; none on pdes-sites"
let behaviour_moves = "msgs_per_op (behaviour count: a perf-only change leaves it unchanged)"
let dqvl_moves = "read_p50_ms, read_p99_ms (figure-wide-keys reads) and write_p50_ms (bench-hot-keys writes)"
let rpc_moves = "failed_op_frac and read_p99_ms on figure-wide-keys"
let telemetry_moves = "ops_per_s and minor_words_per_op on bench-hot-keys; no change on figure-wide-keys (bus unsubscribed)"
let checker_moves = "ops_per_s: strongly on bench-hot-keys, hardly on figure-wide-keys, slightly on pdes-sites"
let pdes_moves = "events_per_s and ops_per_s on pdes-sites only"
let all_moves = "ops_per_s and minor_words_per_op on every workload"
let self_moves = "the layer's share of ops_per_s on the workloads that reach it"

(* (name, exactness, what it moves) for every metric the program can report. *)
let known =
  [
    ("setup_s", Wall, "");
    ("ops_per_s", Wall, "");
    ("events_per_s", Wall, "");
    ("minor_words_per_op", Single_domain, "");
    ("top_heap_mb", Wall, "");
    ("failed_op_frac", Always, "");
    ("read_p50_ms", Always, "");
    ("read_p99_ms", Always, "");
    ("write_p50_ms", Always, "");
    ("msgs_per_op", Always, "");
    ("registry.build_s", Wall, "setup_s on every workload");
  ]
  @ List.concat_map
      (fun p ->
        [
          ("driver.ops_per_s." ^ p, Wall, driver_moves);
          ("driver.minor_words_per_op." ^ p, Single_domain, driver_moves);
          ("driver.promoted_words_per_op." ^ p, Single_domain, driver_moves);
          ("sim.events_per_op." ^ p, Always, behaviour_moves);
          ("net.msgs_per_op." ^ p, Always, behaviour_moves);
          ("net.bytes_per_op." ^ p, Always, behaviour_moves);
        ])
      Workloads.paper_five
  @ [
      ("dqvl.oqs_hit_frac", Always, dqvl_moves);
      ("dqvl.inval_through_per_write", Always, dqvl_moves);
      ("dqvl.inval_suppressed_per_write", Always, dqvl_moves);
      ("dqvl.inval_delayed_per_write", Always, dqvl_moves);
      ("dqvl.lease_grants_per_op", Always, dqvl_moves);
      ("rpc.rounds_per_call", Always, rpc_moves);
      ("rpc.give_ups", Always, rpc_moves);
      ("telemetry.events_per_op", Always, telemetry_moves);
      ("telemetry.metrics_sink_s", Wall, telemetry_moves);
      ("telemetry.aoi_sink_s", Wall, telemetry_moves);
      ("telemetry.overhead_frac", Wall, telemetry_moves);
      ("checker.regular_s", Wall, checker_moves);
      ("checker.staleness_s", Wall, checker_moves);
      ("checker.age_s", Wall, checker_moves);
      ("checker.ops_per_s", Wall, checker_moves);
      ("checker.share", Wall, checker_moves);
      ("pdes.pooled_s", Wall, pdes_moves);
      ("pdes.serial_s", Wall, pdes_moves);
      ("pdes.speedup", Wall, pdes_moves);
      ("pdes.windows", Always, pdes_moves);
      ("pdes.events_per_window", Always, pdes_moves);
      ("pnet.msgs_per_op", Always, pdes_moves);
      ("pnet.drop_frac", Always, pdes_moves);
      ("pdes.check_s", Wall, pdes_moves);
      ("gc.minor_collections", Wall, all_moves);
      ("gc.major_collections", Wall, all_moves);
      ("gc.promoted_words_per_op", Wall, all_moves);
      ("trace.overhead_frac", Wall, "none: the cost of the traced run itself");
    ]
  (* Self time per span name: span duration minus its child spans. *)
  @ List.map
      (fun span -> ("self_s." ^ span, Wall, self_moves))
      [
        "iteration"; "cell"; "setup"; "registry.build"; "driver.run"; "checker.regular";
        "staleness.measure"; "staleness.measure_age"; "pool.with_pool"; "sites.run.pooled";
        "sites.run.serial"; "oracle.compare";
      ]

let self_prefix = "self_s."

(* The span a [self_s.<span>] metric reports, if [name] is one. *)
let self_span name =
  let n = String.length self_prefix in
  if String.length name > n && String.equal (String.sub name 0 n) self_prefix then
    Some (String.sub name n (String.length name - n))
  else None

(* The [scope] list ("end_to_end" or "per_layer") of the benchmark
   definition at [path]. *)
let load path scope =
  let field key j =
    match Option.bind (Json.member key j) Json.str with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: a %s metric without a string %S" path scope key)
  in
  let entries =
    match Option.bind (Json.member scope (Json.parse_file path)) Json.arr with
    | Some l -> l
    | None -> failwith (Printf.sprintf "%s: no %S list" path scope)
  in
  List.map
    (fun j ->
      let name = field "name" j in
      match List.find_opt (fun (n, _, _) -> String.equal n name) known with
      | Some (_, exact, moves) -> { name; unit_ = field "unit" j; better = field "better" j; exact; moves }
      | None -> failwith (Printf.sprintf "%s: the program does not report metric %S" path name))
    entries

let exact_string = function Always -> "always" | Single_domain -> "single-domain" | Wall -> "no"

let to_json metrics =
  "["
  ^ String.concat ","
      (List.map
         (fun c ->
           Printf.sprintf "{\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\",\"exact\":\"%s\",\"moves\":\"%s\"}"
             (Span.escape c.name) (Span.escape c.unit_) (Span.escape c.better) (exact_string c.exact) (Span.escape c.moves))
         metrics)
  ^ "]"
