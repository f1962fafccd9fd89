let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance = function
  | [] -> Float.nan
  | xs ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sq /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list xs in
  Array.sort compare arr;
  let n = Array.length arr in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then arr.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
  end

let geometric_mean = function
  | [] -> Float.nan
  | xs ->
    let logsum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geometric_mean: nonpositive value"
          else acc +. log x)
        0.0 xs
    in
    exp (logsum /. float_of_int (List.length xs))

let relative_error ~expected ~actual =
  if expected = 0.0 && actual = 0.0 then 0.0
  else (actual -. expected) /. expected

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: empty list";
  {
    count = List.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = List.fold_left Float.min Float.infinity xs;
    max = List.fold_left Float.max Float.neg_infinity xs;
    p50 = percentile 0.5 xs;
    p95 = percentile 0.95 xs;
  }
