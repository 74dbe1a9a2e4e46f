(** Comparison of two bench result files for the regression gate. *)

type row = { name : string; ns_per_run : float }

type delta = {
  d_name : string;
  old_ns : float;
  new_ns : float;
  ratio : float;  (** new / old; > 1.0 is a slowdown *)
  limit : float option;
      (** the baseline row's ["max"]: when present, the row regresses
          when its new value exceeds it, whatever the ratio *)
}

type report = {
  deltas : delta list;
  only_old : string list;
  only_new : string list;
  regressions : delta list;
}

val rows_of_json : Triolet_obs.Json.t -> row list
(** Rows of a bench file: either a [BENCH_<family>.json] object with a
    ["rows"] array or a legacy top-level array of rows.  Entries without
    a [name]/[ns_per_run] pair are skipped. *)

val load_rows : string -> row list
(** [load_rows path] parses [path] and extracts its rows.
    @raise Triolet_obs.Json.Parse_error on malformed JSON. *)

val limits_of_json : Triolet_obs.Json.t -> (string * float) list
(** The rows of a bench file that carry an absolute upper limit, a
    numeric ["max"] field, with that limit.  Files without the field
    have none. *)

val compare_rows :
  ?threshold:float -> ?limits:(string * float) list -> row list -> row list -> report
(** Match rows by name and compute slowdown ratios.  A row named in
    [limits] regresses when its new value exceeds its limit; any other
    when ratio > 1 + [threshold] (default 0.15). *)

val compare_files : ?threshold:float -> string -> string -> report
(** {!compare_rows} over two files, with the old file's limits. *)

val pp_report : ?threshold:float -> Format.formatter -> report -> unit
