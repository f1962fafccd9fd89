(** Machine-readable snapshots of the observability registries.

    A small self-contained JSON value type with a printer and parser —
    enough for bench export ([bench/main.exe --json]), the [procsim stats]
    subcommand, and round-trip validation in CI without pulling in an
    external JSON library. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val to_string : json -> string
(** Pretty-printed, two-space indent, trailing newline.  NaN and
    infinities print as [null]. *)

val parse : string -> (json, string) result
(** Strict single-document parser; numbers without ['.'/'e'] become
    [Int], everything else [Float]. *)

val member : string -> json -> json option
(** Field lookup on [Obj]; [None] on other constructors. *)

(** {2 Registry snapshots} *)

val snapshot : ?extra:(string * json) list -> Ctx.t -> json
(** Current state of one context's {!Metrics} (counters + gauges) and
    every named {!Histogram} as
    [{..extra, "counters": {..}, "gauges": {..},
      "histograms": {name: {count,sum,min,max,mean,p50,p90,p99}}}].
    [extra] fields come first; histograms are sorted by name, so a merged
    context snapshots identically regardless of merge order. *)

(** {2 CSV} *)

val counters_csv : Metrics.t -> string
val histograms_csv : Histogram.registry -> string

val write_file : string -> string -> unit
