(** Single-line JSON over {!Dbproc.Obs.Export.json} (whose own printer
    indents across lines). *)

val to_string : Dbproc.Obs.Export.json -> string
(** Compact, one line.  Floats print with as many digits as it takes to
    read back the same value; non-finite floats print as [null]. *)

val to_float : Dbproc.Obs.Export.json -> float option
(** A JSON number as a float. *)
