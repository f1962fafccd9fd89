(* Exact order statistics over raw samples.  Latencies are never binned:
   every figure is read off the sorted samples themselves. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let of_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.of_sorted: no samples";
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Quantile.of_sorted: q outside [0, 1]";
  (* nearest rank; the epsilon keeps q·n = 9.000000000000002 at rank 9 *)
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  s.(Int.max 0 (rank - 1))

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.geomean: no samples";
  if Array.exists (fun x -> not (x > 0.0)) xs then invalid_arg "Quantile.geomean: not positive";
  Float.exp (Array.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs /. float_of_int n)

let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Quantile.quartiles: no samples";
  if ld = 1 then (s.(0), s.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = Int.min (ld - 1) (Int.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)
  end

let relative_spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity else (q3 -. q1) /. Float.abs med

let union_length intervals =
  let iv = Array.copy intervals in
  Array.sort compare iv;
  let total = ref 0 and cur_start = ref 0 and cur_end = ref min_int in
  Array.iter
    (fun (a, b) ->
      if a > !cur_end then begin
        if !cur_end > !cur_start then total := !total + (!cur_end - !cur_start);
        cur_start := a;
        cur_end := b
      end
      else if b > !cur_end then cur_end := b)
    iv;
  if !cur_end > !cur_start then total := !total + (!cur_end - !cur_start);
  !total
