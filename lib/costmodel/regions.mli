(** "Who wins where" classification over the parameter space — the paper's
    Figures 12-15 and 19. *)

type winner_class = AR | CI | UC | HO
(** The paper's region figures compare three algorithm classes, with UC
    represented by its cheaper variant.  [HO] marks where our
    higher-order maintainer beats all four paper strategies; it only
    appears in the extended classifications, never the paper ones. *)

val winner_class_char : winner_class -> char
(** 'R', 'C', 'U', 'H' — the marks used in region maps. *)

val best : Model.which -> Params.t -> Strategy.t
(** Cheapest of all five strategies (ties broken in {!Strategy.all}
    order). *)

val paper_strategies : Strategy.t list
(** {!Strategy.all} minus HOIVM — the four the paper analyzes. *)

val best_class : Model.which -> Params.t -> winner_class
(** Paper classification: never returns [HO]. *)

val best_update_cache : Model.which -> Params.t -> Strategy.t
(** The cheaper Update Cache variant (AVM or RVM). *)

val ci_within_factor : Model.which -> Params.t -> factor:float -> bool
(** Whether Cache and Invalidate costs at most [factor] times the best
    Update Cache variant — the paper's "closeness" maps (Figures 14/15). *)

val classify_at : Model.which -> Params.t -> f:float -> p:float -> winner_class
(** {!best_class} with the object size and update probability overridden
    — one cell of a region map. *)

val classify_at_extended : Model.which -> Params.t -> f:float -> p:float -> winner_class
(** {!classify_at}, except [HO] when HOIVM undercuts every paper
    strategy — one cell of the extended (five-strategy) region map. *)
