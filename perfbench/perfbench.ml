(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0
               [--size full|tiny] [--profile P]
     perfbench --workload NAME --seed N --seconds S --trace 1 --trace-file PATH
               [--size full|tiny] [--profile P]
     perfbench --catalogue

   Run from the directory that holds BENCHMARK.json, which names the
   metrics with their units and directions. Repeats the workload's
   iteration until [--seconds] have passed and prints, as its last
   line, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With [--trace 0] the metrics are the end-to-end ones, measured with
   tracing off. With [--trace 1] each round runs the iteration untraced,
   traced (layer spans on, telemetry sinks timed) and, where needed,
   counted (see [Workloads.closed_loop_round]); the metrics are the
   per-layer ones, and the spans go to [--trace-file] as Chrome
   trace-event JSON. Exits 1 when a correctness check fails, 2 on a
   usage error or an unreadable BENCHMARK.json. *)

open Workloads

let usage () =
  prerr_endline
    "usage: perfbench --workload bench-hot-keys|figure-wide-keys|pdes-sites --seed N \
     --seconds S --trace 0|1 [--trace-file PATH (required with --trace 1)] [--size full|tiny] \
     [--profile P]\n\
    \       perfbench --catalogue";
  exit 2

type workload = Closed of Dq_bench.Scenario.t | Pdes

let workloads = [ ("bench-hot-keys", Closed hot_keys); ("figure-wide-keys", Closed wide_keys); ("pdes-sites", Pdes) ]

let spec_string (s : Spec.t) =
  let sharing =
    match s.Spec.sharing with
    | Spec.Private_object -> "private objects"
    | Spec.Shared_uniform { objects } -> Printf.sprintf "uniform over %d objects" objects
    | Spec.Shared_zipf { objects; exponent } -> Printf.sprintf "Zipf(%g) over %d objects" exponent objects
  in
  Printf.sprintf "%g%% writes, locality %g, %s, closed loop" (100. *. s.Spec.write_ratio) s.Spec.locality sharing

let describe size = function
  | Closed sc ->
    let ops = match size with Full -> sc.Scenario.ops_per_client | Tiny -> sc.Scenario.smoke_ops in
    let faults =
      String.concat ", "
        (List.map
           (fun (e : Driver.event) ->
             match e.Driver.action with
             | `Crash n -> Printf.sprintf "crash %d at %gs" n (e.Driver.at_ms /. 1000.)
             | `Recover n -> Printf.sprintf "recover %d at %gs" n (e.Driver.at_ms /. 1000.)
             | `Partition _ -> "partition"
             | `Heal -> "heal")
           sc.Scenario.faults)
    in
    ( sc.Scenario.description,
      Printf.sprintf
        "%d servers, %d clients, %d ops/client, %s; %s; timeout %gs, redirect %b; protocols %s"
        sc.Scenario.n_servers sc.Scenario.n_clients ops (spec_string sc.Scenario.spec) faults
        (sc.Scenario.timeout_ms /. 1000.) sc.Scenario.redirect_to_up
        (String.concat " " sc.Scenario.protocols) )
  | Pdes ->
    let c = sites_config size 0L in
    ( sites_why,
      Printf.sprintf
        "%d sites x %d clients, %d keys/site, %d ops/client, %g%% writes, %g%% remote reads, \
         loss %g, %d crash site(s); pooled on %d domains and serial"
        c.Sites.n_sites c.Sites.clients_per_site c.Sites.keys_per_site c.Sites.ops_per_client
        (100. *. c.Sites.write_ratio) (100. *. c.Sites.remote_ratio) c.Sites.loss c.Sites.crash_sites
        (Domain.recommended_domain_count ()) )

let catalogue ~end_to_end ~per_layer =
  let ws =
    List.map
      (fun (name, w) ->
        let why, sizes = describe Full w in
        Printf.sprintf "{\"name\":\"%s\",\"why\":\"%s\",\"sizes\":\"%s\"}" name (Span.escape why)
          (Span.escape sizes))
      workloads
  in
  Printf.printf "{\"workloads\":[%s],\"end_to_end\":%s,\"per_layer\":%s}\n" (String.concat "," ws)
    (Catalogue.to_json end_to_end) (Catalogue.to_json per_layer)

(* Per-name median over iterations, in catalogue order; names the
   workload never produced (a layer it does not reach) read 0. *)
let medians (catalogue : Catalogue.metric list) (rows : (string * float) list list) =
  List.map
    (fun (c : Catalogue.metric) ->
      (c, median (List.filter_map (List.assoc_opt c.Catalogue.name) rows)))
    catalogue

(* The benchmark definition, read from the directory the command runs in. *)
let definition = "BENCHMARK.json"

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let size = ref Full and profile = ref "unknown" and trace_file = ref None in
  let want_catalogue = ref false in
  let rec parse = function
    | [] -> ()
    | "--catalogue" :: rest ->
      want_catalogue := true;
      parse rest
    | flag :: v :: rest ->
      (match flag with
       | "--workload" -> workload := Option.map (fun w -> (v, w)) (List.assoc_opt v workloads)
       | "--seed" -> seed := int_of_string_opt v
       | "--seconds" -> seconds := (match float_of_string_opt v with Some s when s > 0. -> Some s | _ -> None)
       | "--trace" -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None)
       | "--size" -> size := (match v with "full" -> Full | "tiny" -> Tiny | _ -> usage ())
       | "--profile" -> profile := v
       | "--trace-file" -> trace_file := Some v
       | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let load scope =
    try Catalogue.load definition scope with
    | Failure msg | Sys_error msg | Dq_bench.Json.Error msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
  in
  let end_to_end = load "end_to_end" and per_layer = load "per_layer" in
  if !want_catalogue then (catalogue ~end_to_end ~per_layer; exit 0);
  let name, w, seed, seconds, traced =
    match (!workload, !seed, !seconds, !trace) with
    | Some (name, w), Some seed, Some seconds, Some traced -> (name, w, seed, seconds, traced)
    | _ -> usage ()
  in
  let trace_file =
    match (traced, !trace_file) with
    | true, None -> usage ()
    | _, f -> f
  in
  let seed64 = Int64.of_int seed in
  let plain () =
    match w with
    | Closed sc -> (closed_loop_iteration ~mode:Plain ~size:!size sc ~seed:seed64).it
    | Pdes -> (pdes_iteration ~retime_check:false (sites_config !size seed64)).it
  in
  let round () =
    match w with
    | Closed sc -> closed_loop_round ~size:!size sc ~seed:seed64
    | Pdes -> pdes_round (sites_config !size seed64)
  in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None in
  let account (it : iteration) =
    attempted := !attempted + it.attempted;
    failed := !failed + it.failed;
    match !reference with
    | None -> reference := Some it.exact
    | Some exact ->
      if compare exact it.exact <> 0 then begin
        incr failed;
        fail "%s: counts or virtual-time figures differ between iterations at one seed" name
      end
  in
  (* One unreported iteration first, checked like the others: the
     first iteration also grows the heap and fills lazily built tables,
     so it allocates more and runs slower than the ones after it. *)
  account (plain ());
  let deadline = now () +. seconds in
  let rows = ref [] and rate_rows = ref [] in
  let spans = ref [] in
  let rec loop () =
    if not traced then begin
      let it = plain () in
      account it;
      rows := it.e2e :: !rows;
      rate_rows := it.rates :: !rate_rows
    end
    else begin
      let its, layers = round () in
      List.iter account its;
      let self = Span.self_times !Span.recorded in
      spans := !Span.recorded @ !spans;
      let self_rows =
        List.filter_map
          (fun (c : Catalogue.metric) ->
            Option.map (fun span -> (c.Catalogue.name, self span)) (Catalogue.self_span c.Catalogue.name))
          per_layer
      in
      rows := (layers @ self_rows) :: !rows
    end;
    if now () < deadline then loop ()
  in
  loop ();
  let heap_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)
  in
  (* Rates are total work over total time of the iterations: on a
     shared machine whose speed changes in phases, a median over
     iterations jumps between them. *)
  let rate name =
    let work, secs =
      List.fold_left
        (fun (w, s) r ->
          let w', s' = List.assoc name r in
          (w +. w', s +. s'))
        (0., 0.) !rate_rows
    in
    ratio work secs
  in
  let iterations = List.length !rows in
  let reported =
    if traced then medians per_layer !rows
    else
      let run_level =
        [ ("top_heap_mb", heap_mb); ("ops_per_s", rate "ops_per_s"); ("events_per_s", rate "events_per_s") ]
      in
      medians end_to_end (List.map (fun r -> run_level @ r) !rows)
  in
  List.iter
    (fun ((c : Catalogue.metric), v) ->
      if not (Float.is_finite v) then begin
        incr failed;
        fail "%s: metric %s is not finite" name c.Catalogue.name
      end)
    reported;
  Option.iter (fun path -> Span.write_chrome path !spans) trace_file;
  let why, sizes = describe !size w in
  let jobs = Domain.recommended_domain_count () in
  Printf.printf
    "context: {\"workload\":\"%s\",\"why\":\"%s\",\"sizes\":\"%s\",\"seed\":%d,\"seconds\":%g,\"iterations\":%d,\"trace\":%d,\"nproc\":%d,\"jobs\":%d,\"ocaml\":\"%s\",\"profile\":\"%s\"%s}\n"
    name (Span.escape why) (Span.escape sizes) seed seconds iterations (Bool.to_int traced) jobs jobs
    Sys.ocaml_version (Span.escape !profile)
    (match trace_file with Some f -> Printf.sprintf ",\"trace_file\":\"%s\"" (Span.escape f) | None -> "");
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  List.iter
    (fun ((c : Catalogue.metric), v) -> Printf.printf "%-40s %.6g %s\n" c.Catalogue.name v c.Catalogue.unit_)
    reported;
  let correct = !failures = [] in
  let metrics =
    List.map
      (fun ((c : Catalogue.metric), v) ->
        Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" c.Catalogue.name
          (if Float.is_finite v then v else 0.)
          c.Catalogue.unit_)
      reported
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    !attempted !failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
