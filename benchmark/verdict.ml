type better = Lower | Higher

type verdict = Improved | Within_bound | Worse | Unresolved

type t = {
  parent_median : float;
  parent_quartiles : float * float;
  change_median : float;
  change_quartiles : float * float;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let verdict_name = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge ~better ~bound ~parent ~change =
  if Array.length parent = 0 || Array.length change = 0 then
    invalid_arg "Verdict.judge: each side needs at least one run";
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let pm = Quantile.median parent and cm = Quantile.median change in
  let ((pq1, pq3) as pq) = Quantile.quartiles parent in
  let pairs = Int.min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats change.(i) parent.(i) then incr wins
  done;
  let worsening =
    let d = match better with Lower -> cm -. pm | Higher -> pm -. cm in
    if pm = 0.0 then if d = 0.0 then 0.0 else d *. infinity else d /. Float.abs pm
  in
  let spread = Float.max (Quantile.relative_spread parent) (Quantile.relative_spread change) in
  let every_run_better =
    Array.for_all (fun c -> Array.for_all (fun p -> beats c p) parent) change
  in
  let verdict =
    if !wins * 10 >= 9 * pairs && beats cm pm && Float.abs (cm -. pm) > pq3 -. pq1 then
      Improved
    else if spread > bound && not every_run_better then Unresolved
    else if worsening > bound then Worse
    else Within_bound
  in
  {
    parent_median = pm;
    parent_quartiles = pq;
    change_median = cm;
    change_quartiles = Quantile.quartiles change;
    wins = !wins;
    pairs;
    verdict;
  }
