(* Odds and ends of the harness: table rendering of experiment rows,
   the figure catalogue, the virtual-time log reporter, and registry
   coherence. *)

module E = Dq_harness.Experiment
module Render = Dq_harness.Render
module Registry = Dq_harness.Registry
module Table = Dq_util.Table
module Engine = Dq_sim.Engine

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let row protocol overall =
  {
    E.protocol;
    read_ms = overall -. 1.;
    write_ms = overall +. 1.;
    overall_ms = overall;
    completed = 10;
    failed = 0;
    violations = 0;
  }

let test_render_response_rows () =
  let t = Render.response_rows ~title:"proto" [ row "dqvl" 20.; row "majority" 180. ] in
  let out = Table.render t in
  Alcotest.(check bool) "has dqvl" true (contains ~needle:"dqvl" out);
  Alcotest.(check bool) "has value" true (contains ~needle:"180.0" out)

let test_render_sweep () =
  let t =
    Render.series ~x_label:"w"
      ~x_of:(Printf.sprintf "%.1f")
      ~fmt:(Printf.sprintf "%.1f")
      [ (0.1, [ ("a", 10.); ("b", 20.) ]); (0.2, [ ("a", 30.); ("b", 40.) ]) ]
  in
  Alcotest.(check string) "columns from the first point"
    " w   a     b   \n---  ----  ----  \n0.1  10.0  20.0\n0.2  30.0  40.0\n" (Table.render t)

let test_render_sweep_missing_protocol () =
  let t =
    Render.series ~x_label:"w"
      ~x_of:(Printf.sprintf "%.1f")
      [ (0.1, [ ("a", 10.); ("b", 20.) ]); (0.2, [ ("a", 30.) ]) ]
  in
  Alcotest.(check bool) "dash for missing" true
    (contains ~needle:"0.2  30.00  -" (Table.render t))

let test_render_series_formats () =
  let t =
    Render.series ~x_label:"n" ~x_of:string_of_int ~fmt:Render.scientific
      [ (3, [ ("x", 1.5e-9) ]) ]
  in
  Alcotest.(check bool) "scientific" true (contains ~needle:"1.50e-09" (Table.render t))

let test_scientific () =
  Alcotest.(check string) "formats" "6.05e-13" (Render.scientific 6.05e-13)

let ids entries = List.map (fun (e : Render.entry) -> e.Render.id) entries

let test_catalogue_ids () =
  let all = ids Render.catalogue in
  Alcotest.(check int) "unique ids" (List.length all)
    (List.length (List.sort_uniq String.compare all));
  List.iter
    (fun (e : Render.entry) ->
      match Render.find e.Render.id with
      | Some found -> Alcotest.(check bool) (e.Render.id ^ " round-trips") true (found == e)
      | None -> Alcotest.failf "%s not found" e.Render.id)
    Render.catalogue;
  Alcotest.(check bool) "unknown id" true (Option.is_none (Render.find "nosuch"))

let test_catalogue_kinds () =
  (* The dqr fig / dqr ablation enums are built from these lists. *)
  Alcotest.(check (list string)) "figures"
    [ "6a"; "6b"; "7a"; "7b"; "8a"; "8b"; "8m"; "9a"; "9b"; "bandwidth"; "load" ]
    (ids (Render.entries Render.Figure));
  Alcotest.(check (list string)) "ablations"
    [
      "leases"; "lease-len"; "bursts"; "orq"; "grid"; "object-lease"; "batch-renewals";
      "atomic"; "staleness";
    ]
    (ids (Render.entries Render.Ablation));
  Alcotest.(check (list string)) "figures first, then ablations" (ids Render.catalogue)
    (ids (Render.entries Render.Figure) @ ids (Render.entries Render.Ablation))

(* The CSV of the analytical Figure 8(b), pinned byte for byte: what
   `dqr fig 8b --csv DIR` writes as DIR/fig8b.csv. *)
let fig8b_csv =
  {|replicas,dqvl,majority,rowa,rowa-async,rowa-async-nostale,primary-backup
3,0.0002980000000000002,0.0002980000000000002,0.0074260000000000003,1.0000000000000002e-06,0.01,0.01
5,9.8506000000000053e-06,9.8506000000000053e-06,0.0122524876,1.0000000000000002e-10,0.01,0.01
7,3.4166980000000072e-07,3.4166980000000072e-07,0.016983663023260001,1.0000000000000002e-14,0.01,0.01
9,1.2185368570000043e-08,1.2185368570000043e-08,0.021620688129089776,1.0000000000000003e-18,0.01,0.01
11,4.4254343383480025e-10,4.4254343383480025e-10,0.026165436435320891,1.0000000000000003e-22,0.01,0.01
13,1.6278881392003356e-11,1.6278881392003356e-11,0.030619744250258006,1.0000000000000003e-26,0.01,0.01
15,6.0452484932097277e-13,6.0452484932097277e-13,0.034985411339677877,1.0000000000000003e-30,0.01,0.01
17,2.2614362673891447e-14,2.2614362673891447e-14,0.039264201654018283,1.0000000000000004e-34,0.01,0.01
19,8.5091047329055505e-16,8.5091047329055505e-16,0.043457844041103318,1.0000000000000004e-38,0.01,0.01
21,3.2169401503950667e-17,3.2169401503950667e-17,0.047568032944685361,1.0000000000000005e-42,0.01,0.01
|}

let test_catalogue_fig8b_csv () =
  match Render.find "8b" with
  | None -> Alcotest.fail "8b missing"
  | Some e ->
    Alcotest.(check (list (option string))) "csv" [ Some fig8b_csv ]
      (List.map (fun (s : Render.section) -> s.Render.csv) (e.Render.run ()))

let test_sim_log_reporter_stamps_time () =
  let engine = Engine.create () in
  (* Install, emit at two virtual times, restore defaults. *)
  let buf = Buffer.create 128 in
  let reporter = Dq_sim.Sim_log.reporter engine in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Debug);
  let src = Logs.Src.create "test.src" in
  let module Log = (val Logs.src_log src : Logs.LOG) in
  (* Capture by redirecting the formatter is awkward; instead verify the
     reporter formats without raising at different virtual times. *)
  Log.debug (fun m -> m "hello %d" 1);
  ignore (Engine.schedule engine ~delay:123. (fun () -> Log.debug (fun m -> m "later")));
  Engine.run engine;
  Logs.set_reporter Logs.nop_reporter;
  Logs.set_level None;
  ignore buf;
  Alcotest.(check (float 0.)) "time advanced" 123. (Engine.now engine)

let test_registry_names_are_unique () =
  let builders =
    Registry.paper_five
    @ [
        Registry.dq_basic;
        Registry.atomic_majority;
        Registry.dqvl_atomic ();
        Registry.grid ~rows:3 ~cols:3;
      ]
  in
  let names = List.map (fun (b : Registry.builder) -> b.Registry.name) builders in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_builders_run () =
  (* Every registered builder stands up a working cluster. *)
  let topology = Dq_net.Topology.make ~n_servers:9 ~n_clients:1 () in
  let key = Dq_storage.Key.make ~volume:0 ~index:0 in
  List.iter
    (fun (builder : Registry.builder) ->
      let engine = Engine.create ~seed:14L () in
      let instance = builder.Registry.build engine topology () in
      let got = ref None in
      let module R = Dq_intf.Replication in
      instance.Registry.api.R.submit_write ~client:9 ~server:0 key "v" (fun _ ->
          instance.Registry.api.R.submit_read ~client:9 ~server:1 key (fun r ->
              got := Some r.R.read_value));
      Engine.run ~until:120_000. engine;
      instance.Registry.api.R.quiesce ();
      match !got with
      | Some v ->
        (* ROWA-Async may legitimately return a stale (initial) value at
           a replica the write has not reached. *)
        Alcotest.(check bool) (builder.Registry.name ^ " responds") true (v = "v" || v = "")
      | None -> Alcotest.failf "%s: read never completed" builder.Registry.name)
    (Registry.paper_five @ [ Registry.dq_basic; Registry.atomic_majority ])

let () =
  Alcotest.run "harness_misc"
    [
      ( "render",
        [
          Alcotest.test_case "response rows" `Quick test_render_response_rows;
          Alcotest.test_case "sweep" `Quick test_render_sweep;
          Alcotest.test_case "sweep missing" `Quick test_render_sweep_missing_protocol;
          Alcotest.test_case "series" `Quick test_render_series_formats;
          Alcotest.test_case "scientific" `Quick test_scientific;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "ids" `Quick test_catalogue_ids;
          Alcotest.test_case "kinds" `Quick test_catalogue_kinds;
          Alcotest.test_case "fig8b csv" `Quick test_catalogue_fig8b_csv;
        ] );
      ("logging", [ Alcotest.test_case "reporter" `Quick test_sim_log_reporter_stamps_time ]);
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick test_registry_names_are_unique;
          Alcotest.test_case "builders run" `Slow test_registry_builders_run;
        ] );
    ]
