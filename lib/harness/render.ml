module E = Experiment
module Table = Dq_util.Table

let scientific v = Printf.sprintf "%.2e" v

let f1 = Printf.sprintf "%.1f"

let f2 = Printf.sprintf "%.2f"

let response_rows ~title rows =
  let t =
    Table.create
      ~header:[ title; "read ms"; "write ms"; "overall ms"; "completed"; "failed"; "violations" ]
  in
  List.iter
    (fun (r : E.response_row) ->
      Table.add_row t
        [
          r.E.protocol;
          f1 r.E.read_ms;
          f1 r.E.write_ms;
          f1 r.E.overall_ms;
          string_of_int r.E.completed;
          string_of_int r.E.failed;
          string_of_int r.E.violations;
        ])
    rows;
  t

let series ~x_label ~x_of ?(fmt = f2) points =
  let corner = " " ^ x_label in
  match points with
  | [] -> Table.create ~header:[ corner ]
  | (_, first) :: _ ->
    let labels = List.map fst first in
    let t = Table.create ~header:(corner :: labels) in
    List.iter
      (fun (x, values) ->
        let cell name =
          match
            List.find_map
              (fun (l, v) -> if String.equal l name then Some v else None)
              values
          with
          | Some v -> fmt v
          | None -> "-"
        in
        Table.add_row t (x_of x :: List.map cell labels))
      points;
    t

(* --- sections ------------------------------------------------------------- *)

type section = { title : string; table : Table.t; csv : string option }

let section ?csv title table = { title; table; csv }

let print_heading title = Printf.printf "\n== %s ==\n\n" title

let print_section s =
  print_heading s.title;
  Table.print s.table

let overall points =
  List.map
    (fun (x, rows) ->
      (x, List.map (fun (r : E.response_row) -> (r.E.protocol, r.E.overall_ms)) rows))
    points

(* A response-time table, and the same rows as CSV. *)
let response_figure title rows =
  let f3 = Printf.sprintf "%.3f" in
  let csv =
    Csv.to_string
      ~header:[ "protocol"; "read_ms"; "write_ms"; "overall_ms"; "completed"; "failed" ]
      (List.map
         (fun (r : E.response_row) ->
           [
             r.E.protocol;
             f3 r.E.read_ms;
             f3 r.E.write_ms;
             f3 r.E.overall_ms;
             string_of_int r.E.completed;
             string_of_int r.E.failed;
           ])
         rows)
  in
  section ~csv title (response_rows ~title:"protocol" rows)

(* A series table, and the same points as CSV; the CSV's x column is
   the table's x label in snake case ("OQS size" -> "oqs_size"). *)
let series_figure ?fmt ~x_label ~x_of title points =
  let csv_x = String.map (function ' ' -> '_' | c -> c) (String.lowercase_ascii x_label) in
  section
    ~csv:(Csv.series ~x_label:csv_x ~x_of points)
    title
    (series ~x_label ~x_of ?fmt points)

(* Name each row of a one-parameter sweep after its parameter. *)
let relabel label points =
  List.map (fun (x, r) -> { r with E.protocol = label x }) points

let fig8_measured ?seed ?ops () =
  let t = Table.create ~header:[ "protocol"; "measured unavail"; "model unavail (p=0.1)" ] in
  let model =
    match E.fig8a ~p:0.1 ~n:9 ~write_ratios:[ 0.25 ] () with
    | [ (_, series) ] -> series
    | _ -> []
  in
  List.iter
    (fun (name, measured) ->
      Table.add_row t
        [
          name;
          scientific measured;
          (match List.find_opt (fun (l, _) -> String.equal l name) model with
          | Some (_, v) -> scientific v
          | None -> "-");
        ])
    (E.fig8_measured ?seed ?ops ());
  [
    section
      "Figure 8 cross-check: measured unavailability under churn (p=0.1, w=0.25, redirection)"
      t;
  ]

let fig9a ?seed ?ops () =
  let measured =
    List.map (fun (w, v) -> (w, [ ("dqvl measured", v) ])) (E.fig9a_measured ?seed ?ops ())
  in
  [
    series_figure ~x_label:"write ratio" ~x_of:f2
      "Figure 9(a): messages per request vs write ratio (model)" (E.fig9a ());
    section "Figure 9(a) cross-check: measured DQVL messages per request"
      (series ~x_label:"write ratio" ~x_of:f2 measured);
  ]

let bandwidth ?seed ?ops ?(write_ratio = 0.25) () =
  let t = Table.create ~header:[ "protocol"; "msgs/request"; "bytes/request" ] in
  List.iter
    (fun (name, mpr, bpr) -> Table.add_row t [ name; f1 mpr; Printf.sprintf "%.0f" bpr ])
    (E.bandwidth ?seed ?ops ~write_ratio ());
  section
    (Printf.sprintf "Bandwidth: measured messages and bytes per request (w=%.2f)" write_ratio)
    t

let load ?seed ?ops ?(service_ms = 1.) () =
  section
    (Printf.sprintf
       "Load study (beyond the paper): open-loop arrivals, %g ms/message service time \
        (mean ms)"
       service_ms)
    (series ~x_label:"req/s per client" ~x_of:(Printf.sprintf "%.0f") ~fmt:f1
       (E.saturation ?seed ?ops ~service_ms ()))

let object_lease ?seed ?ops () =
  let t = Table.create ~header:[ "config"; "msgs/request"; "mean write ms" ] in
  List.iter
    (fun (name, mpr, write_ms) -> Table.add_row t [ name; f1 mpr; f1 write_ms ])
    (E.ablation_object_lease ?seed ?ops ());
  [
    section "Ablation: finite object leases (paper footnote 4; scattered readers, think time)"
      t;
  ]

let batch_renewals ?seed ?ops:_ () =
  let t = Table.create ~header:[ "policy"; "renewal requests" ] in
  List.iter
    (fun (name, n) -> Table.add_row t [ name; string_of_int n ])
    (E.ablation_batch_renewals ?seed ());
  [ section "Ablation: batched volume-lease renewals (6 volumes, 20 s, proactive)" t ]

let staleness ?seed ?ops () =
  let t =
    Table.create ~header:[ "protocol"; "stale reads"; "mean behind (ms)"; "max behind (ms)" ]
  in
  List.iter
    (fun (r : E.staleness_row) ->
      Table.add_row t
        [
          r.E.s_protocol;
          Printf.sprintf "%.1f%%" (100. *. r.E.s_stale_fraction);
          Printf.sprintf "%.0f" r.E.s_mean_behind_ms;
          Printf.sprintf "%.0f" r.E.s_max_behind_ms;
        ])
    (E.ablation_staleness ?seed ?ops ());
  [ section "Ablation: read staleness under 30% message loss (shared object, 50% writes)" t ]

(* --- the catalogue ----------------------------------------------------------- *)

type kind = Figure | Ablation

type entry = {
  id : string;
  kind : kind;
  run : ?seed:int64 -> ?ops:int -> unit -> section list;
}

let catalogue =
  let fig id run = { id; kind = Figure; run } in
  let ablation id run = { id; kind = Ablation; run } in
  [
    fig "6a" (fun ?seed ?ops () ->
        [
          response_figure "Figure 6(a): response time at 5% writes (ms)"
            (E.fig6a ?seed ?ops ());
        ]);
    fig "6b" (fun ?seed ?ops () ->
        [
          series_figure ~fmt:f1 ~x_label:"write ratio" ~x_of:f2
            "Figure 6(b): mean response time vs write ratio (ms)"
            (overall (E.fig6b ?seed ?ops ()));
        ]);
    fig "7a" (fun ?seed ?ops () ->
        [
          response_figure "Figure 7(a): response time at 5% writes, 90% locality (ms)"
            (E.fig7a ?seed ?ops ());
        ]);
    fig "7b" (fun ?seed ?ops () ->
        [
          series_figure ~fmt:f1 ~x_label:"locality" ~x_of:f2
            "Figure 7(b): mean response time vs access locality (ms)"
            (overall (E.fig7b ?seed ?ops ()));
        ]);
    fig "8a" (fun ?seed:_ ?ops:_ () ->
        [
          series_figure ~fmt:scientific ~x_label:"write ratio" ~x_of:f2
            "Figure 8(a): unavailability vs write ratio (n=15, p=0.01)" (E.fig8a ());
        ]);
    fig "8b" (fun ?seed:_ ?ops:_ () ->
        [
          series_figure ~fmt:scientific ~x_label:"replicas" ~x_of:string_of_int
            "Figure 8(b): unavailability vs number of replicas (w=0.25, p=0.01)" (E.fig8b ());
        ]);
    fig "8m" fig8_measured;
    fig "9a" fig9a;
    fig "9b" (fun ?seed:_ ?ops:_ () ->
        [
          series_figure ~x_label:"OQS size" ~x_of:string_of_int
            "Figure 9(b): messages per request vs OQS size (IQS fixed at 5, w=0.25)"
            (E.fig9b ());
        ]);
    fig "bandwidth" (fun ?seed ?ops () -> [ bandwidth ?seed ?ops () ]);
    fig "load" (fun ?seed ?ops () -> [ load ?seed ?ops () ]);
    ablation "leases" (fun ?seed ?ops () ->
        [
          section "Ablation: DQVL vs basic dual quorum (value of volume leases)"
            (response_rows ~title:"protocol" (E.ablation_leases ?seed ?ops ()));
        ]);
    ablation "lease-len" (fun ?seed ?ops () ->
        [
          section "Ablation: volume lease length (on-demand renewal)"
            (response_rows ~title:"config"
               (relabel (Printf.sprintf "dqvl L=%.0fms") (E.ablation_lease_len ?seed ?ops ())));
        ]);
    ablation "bursts" (fun ?seed ?ops () ->
        [
          section "Ablation: workload burstiness at 50% writes"
            (response_rows ~title:"config"
               (relabel (Printf.sprintf "dqvl burst=%.0f") (E.ablation_bursts ?seed ?ops ())));
        ]);
    ablation "orq" (fun ?seed ?ops () ->
        [
          section "Ablation: OQS read quorum size (paper future work)"
            (response_rows ~title:"config" (List.map snd (E.ablation_orq ?seed ?ops ())));
        ]);
    ablation "grid" (fun ?seed:_ ?ops:_ () ->
        [
          section "Ablation: grid-quorum IQS availability (paper future work)"
            (series ~x_label:"replicas" ~x_of:string_of_int ~fmt:scientific
               (E.ablation_grid ()));
        ]);
    ablation "object-lease" object_lease;
    ablation "batch-renewals" batch_renewals;
    ablation "atomic" (fun ?seed ?ops () ->
        [
          section "Ablation: the cost of atomic semantics (read-imposition, paper future work)"
            (response_rows ~title:"protocol" (E.ablation_atomic ?seed ?ops ()));
        ]);
    ablation "staleness" staleness;
  ]

let entries kind = List.filter (fun e -> e.kind = kind) catalogue

let find id = List.find_opt (fun e -> String.equal e.id id) catalogue
