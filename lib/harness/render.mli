(** Rendering of experiment results as aligned text tables, and the
    catalogue of every paper figure and ablation — the one place that
    decides what each figure runs and how it looks. The benchmark
    harness ([bench/main.exe]) and the CLI ([dqr fig], [dqr ablation],
    [dqr load], [dqr bandwidth]) all print from it. *)

val response_rows : title:string -> Experiment.response_row list -> Dq_util.Table.t
(** One row per protocol: mean read, write and overall response time
    (ms, [%.1f]), completed, failed and violation counts. *)

val series :
  x_label:string ->
  x_of:('a -> string) ->
  ?fmt:(float -> string) ->
  ('a * (string * float) list) list ->
  Dq_util.Table.t
(** Generic (x, per-label value) table, e.g. response time,
    unavailability or messages per request: one row per x, one column
    per label of the first point, a missing label shown as [-]. The
    corner cell is [" " ^ x_label]; [fmt] defaults to [%.2f]. *)

val scientific : float -> string
(** Format like ["1.3e-09"], the paper's log-scale figures. *)

(** {2 Sections} *)

type section = {
  title : string;
  table : Dq_util.Table.t;
  csv : string option;  (** the data as CSV text, for figures [dqr fig --csv] exports *)
}

val print_heading : string -> unit
(** Print ["\n== title ==\n\n"] to standard output. *)

val print_section : section -> unit
(** {!print_heading} the title, then the table. *)

val bandwidth : ?seed:int64 -> ?ops:int -> ?write_ratio:float -> unit -> section
(** The [bandwidth] figure at any write ratio (default 0.25). *)

val load : ?seed:int64 -> ?ops:int -> ?service_ms:float -> unit -> section
(** The [load] figure at any per-message service time (default 1 ms). *)

(** {2 The catalogue} *)

type kind = Figure | Ablation

type entry = {
  id : string;
  kind : kind;
  run : ?seed:int64 -> ?ops:int -> unit -> section list;
      (** Run the experiment — with its own defaults for what is not
          given — and render it. At most one section carries CSV. *)
}

val catalogue : entry list
(** Every figure, then every ablation, in the benchmark's print order:
    figures [6a 6b 7a 7b 8a 8b 8m 9a 9b bandwidth load]; ablations
    [leases lease-len bursts orq grid object-lease batch-renewals
    atomic staleness]. *)

val entries : kind -> entry list
(** The entries of one kind, in catalogue order. *)

val find : string -> entry option
(** The entry with this id, if any. *)
