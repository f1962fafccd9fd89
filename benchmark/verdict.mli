(** Whether a change moved one metric on one workload, judged from repeated
    runs of the parent commit and of the change.

    The rule is the one the benchmark's README states:
    - {b improved}: the change wins at least nine tenths of the pairs
      (run [i] of the parent against run [i] of the change; ties count for
      neither side), its median is better, and the medians differ by more
      than the parent's interquartile distance;
    - {b unresolved}: otherwise, when the run-to-run spread of either side
      (interquartile distance over median) is wider than the bound —
      unless every run of the change beats every run of the parent;
    - {b worse}: the change's median is worse than the parent's by more
      than the bound (a share of the parent's median);
    - {b within bound}: anything else. *)

type better = Lower | Higher

type verdict = Improved | Within_bound | Worse | Unresolved

type t = {
  parent_median : float;
  parent_quartiles : float * float;
  change_median : float;
  change_quartiles : float * float;
  wins : int;  (** pairs the change won *)
  pairs : int;
  verdict : verdict;
}

val better_of_string : string -> better option
(** ["lower"] or ["higher"], as BENCHMARK.json spells them. *)

val verdict_name : verdict -> string

val judge : better:better -> bound:float -> parent:float array -> change:float array -> t
(** Raises [Invalid_argument] when either side has no runs. *)
