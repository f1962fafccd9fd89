(** The paper's evaluation figures as executable experiment definitions.

    Each figure declares its parameter deltas from the Figure-2 defaults
    and produces either a data series (cost vs. a swept parameter, one
    column per strategy), a region map over (f, P), or a static table.
    Identifiers follow the {e body text} numbering; the scanned appendix
    captions are shifted by one (see EXPERIMENTS.md). *)

type output =
  | Series of {
      x_label : string;
      y_label : string;
      columns : string list;  (** series names *)
      rows : (float * float list) list;  (** x, one y per column *)
    }
  | Region of {
      x_label : string;
      y_label : string;
      rendered : string;  (** ASCII region map *)
      legend : string;
    }
  | Table of { header : string list; rows : string list list }

type t = {
  id : string;  (** e.g. "fig5" *)
  title : string;
  expectation : string;  (** what the paper's plot shows, for eyeballing *)
  params : Params.t;  (** base parameters of the experiment *)
  model : Model.which;
  output : unit -> output;
}

val all : t list
(** Every table and figure of the evaluation, in paper order. *)

val find : string -> t option

val render : t -> string
(** Title, expectation, data table and (for series) an ASCII plot. *)

val crossover_sf : Model.which -> Params.t -> float option
(** Smallest SF (on a fine grid) where RVM becomes no more expensive than
    AVM — the paper reports ≈ 0.47 for model 2. *)
