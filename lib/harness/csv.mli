(** CSV export of experiment data, for external plotting.

    Each figure of {!Render.catalogue} carries its data as CSV text
    ({!to_string} / {!series}); the CLI's [--csv DIR] option writes it
    with {!write}, one file per figure, so the paper's plots can be
    redrawn with any tool. *)

val escape : string -> string
(** RFC-4180 quoting for cells containing commas, quotes or newlines. *)

val to_string : header:string list -> string list list -> string

val series : x_label:string -> x_of:('a -> string) -> ('a * (string * float) list) list -> string
(** One column per series label (taken from the first point), one row
    per x value — the same shape as {!Render.series}; values print with
    [%.17g] and a missing label leaves its cell empty. *)

val write : dir:string -> name:string -> string -> string
(** [write ~dir ~name contents] writes [name].csv under [dir] (created
    if missing); returns the path. *)
