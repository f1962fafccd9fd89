(* The benchmark's own arithmetic: exact quantiles, quartiles as Python's
   statistics.quantiles computes them, and the compare verdict rule. *)

open Wallbench

let feq = Alcotest.float 1e-9

let test_nearest_rank () =
  let s = Quantile.sorted (Array.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check feq "p50 of 1..10" 5.0 (Quantile.of_sorted s 0.5);
  Alcotest.check feq "p90 of 1..10" 9.0 (Quantile.of_sorted s 0.9);
  Alcotest.check feq "p99 of 1..10" 10.0 (Quantile.of_sorted s 0.99);
  Alcotest.check feq "p0 is the minimum" 1.0 (Quantile.of_sorted s 0.0);
  let s100 = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p99 of 1..100" 99.0 (Quantile.of_sorted s100 0.99);
  Alcotest.check feq "one sample" 7.0 (Quantile.of_sorted [| 7.0 |] 0.9);
  Alcotest.check_raises "no samples" (Invalid_argument "Quantile.of_sorted: no samples")
    (fun () -> ignore (Quantile.of_sorted [||] 0.5))

let test_median_and_quartiles () =
  Alcotest.check feq "odd median" 3.0 (Quantile.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |]);
  Alcotest.check feq "even median" 2.5 (Quantile.median [| 4.0; 1.0; 3.0; 2.0 |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Quantile.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1 of 1..10" 2.75 q1;
  Alcotest.check feq "q3 of 1..10" 8.25 q3;
  (* statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5] *)
  let q1, q3 = Quantile.quartiles [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  Alcotest.check feq "q1 of 1..5" 1.5 q1;
  Alcotest.check feq "q3 of 1..5" 4.5 q3;
  let q1, q3 = Quantile.quartiles [| 1.0; 2.0 |] in
  Alcotest.check feq "q1 of two (extrapolated, as Python does)" 0.75 q1;
  Alcotest.check feq "q3 of two" 2.25 q3;
  Alcotest.check feq "relative spread" 0.1
    (Quantile.relative_spread [| 95.0; 95.0; 105.0; 105.0; 100.0 |])

let test_geomean () =
  Alcotest.check feq "two classes" 4.0 (Quantile.geomean [| 2.0; 8.0 |]);
  Alcotest.check feq "one class" 0.25 (Quantile.geomean [| 0.25 |]);
  (* halving one of five classes moves the figure by 2^(1/5), whichever it is *)
  let base = [| 0.002; 0.002; 0.004; 0.08; 0.09 |] in
  let halved k = Array.mapi (fun i x -> if i = k then x /. 2.0 else x) base in
  List.iter
    (fun k ->
      Alcotest.check (Alcotest.float 1e-12) "same relative move" (2.0 ** (-0.2))
        (Quantile.geomean (halved k) /. Quantile.geomean base))
    [ 0; 3 ];
  Alcotest.check_raises "no samples" (Invalid_argument "Quantile.geomean: no samples")
    (fun () -> ignore (Quantile.geomean [||]));
  Alcotest.check_raises "zero" (Invalid_argument "Quantile.geomean: not positive") (fun () ->
      ignore (Quantile.geomean [| 1.0; 0.0 |]))

let test_union () =
  Alcotest.(check int) "overlap counted once" 20
    (Quantile.union_length [| (20, 25); (5, 15); (0, 10) |]);
  Alcotest.(check int) "nested" 10 (Quantile.union_length [| (0, 10); (2, 3) |]);
  Alcotest.(check int) "touching" 10 (Quantile.union_length [| (0, 5); (5, 10) |]);
  Alcotest.(check int) "empty" 0 (Quantile.union_length [||])

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.verdict_name v))
    ( = )

let judge ?(better = Verdict.Lower) ?(bound = 0.1) parent change =
  Verdict.judge ~better ~bound ~parent:(Array.of_list parent) ~change:(Array.of_list change)

let parent = [ 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. ]

let test_nine_of_ten () =
  let nine = List.mapi (fun i p -> if i = 9 then p +. 5. else p -. 10.) parent in
  let v = judge parent nine in
  Alcotest.(check int) "nine wins" 9 v.Verdict.wins;
  Alcotest.(check int) "ten pairs" 10 v.Verdict.pairs;
  Alcotest.check verdict "9/10 improves" Verdict.Improved v.Verdict.verdict;
  let eight = List.mapi (fun i p -> if i >= 8 then p +. 5. else p -. 10.) parent in
  Alcotest.check verdict "8/10 does not" Verdict.Within_bound (judge parent eight).Verdict.verdict

let test_ties () =
  Alcotest.check verdict "identical runs" Verdict.Within_bound
    (judge [ 5.; 5.; 5.; 5. ] [ 5.; 5.; 5.; 5. ]).Verdict.verdict;
  (* a tie counts for neither side but still counts as a pair *)
  let one_tie = List.mapi (fun i p -> if i = 0 then p else p -. 10.) parent in
  let v = judge parent one_tie in
  Alcotest.(check int) "tie is no win" 9 v.Verdict.wins;
  Alcotest.check verdict "one tie still 9/10" Verdict.Improved v.Verdict.verdict;
  let two_ties = List.mapi (fun i p -> if i < 2 then p else p -. 10.) parent in
  Alcotest.check verdict "two ties fall short" Verdict.Within_bound
    (judge parent two_ties).Verdict.verdict

let test_median_gap_must_exceed_parent_spread () =
  (* every pair won, but by less than the parent's interquartile distance *)
  let v = judge parent (List.map (fun p -> p -. 0.5) parent) in
  Alcotest.(check int) "all pairs won" 10 v.Verdict.wins;
  Alcotest.check verdict "gap inside the spread" Verdict.Within_bound v.Verdict.verdict

let test_unresolved () =
  let wide = [ 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. ] in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (judge wide [ 105.; 95.; 100.; 110.; 90.; 100.; 104.; 96.; 101.; 99. ]).Verdict.verdict;
  Alcotest.check verdict "even when the change is also wide" Verdict.Unresolved
    (judge [ 100.; 100.; 100.; 100.; 100. ] [ 50.; 150.; 100.; 70.; 130. ]).Verdict.verdict;
  (* unless every run of the change beats every run of the parent *)
  Alcotest.check verdict "every run better" Verdict.Within_bound
    (judge [ 100.; 140.; 180.; 220.; 260. ] [ 95.; 96.; 97.; 98.; 99. ]).Verdict.verdict

let test_worse () =
  let v = judge [ 100.; 100.; 101.; 99.; 100. ] [ 120.; 121.; 119.; 120.; 120. ] in
  Alcotest.check verdict "20% slower against a 10% bound" Verdict.Worse v.Verdict.verdict;
  Alcotest.check verdict "5% slower is within" Verdict.Within_bound
    (judge [ 100.; 100.; 101.; 99.; 100. ] [ 105.; 105.; 104.; 106.; 105. ]).Verdict.verdict;
  Alcotest.check verdict "throughput down 20%" Verdict.Worse
    (judge ~better:Verdict.Higher [ 100.; 100.; 101.; 99.; 100. ] [ 80.; 80.; 81.; 79.; 80. ])
      .Verdict.verdict;
  Alcotest.check verdict "throughput up" Verdict.Improved
    (judge ~better:Verdict.Higher [ 100.; 100.; 101.; 99.; 100. ] [ 120.; 121.; 119.; 120.; 120. ])
      .Verdict.verdict

let test_jsonl () =
  let module E = Dbproc.Obs.Export in
  let json =
    E.Obj
      [
        ("a", E.Float 0.1);
        ("b", E.Float (1.0 /. 3.0));
        ("s", E.String "x\"y\n");
        ("l", E.List [ E.Int 1; E.Null ]);
      ]
  in
  let line = Jsonl.to_string json in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  Alcotest.(check string)
    "shortest digits"
    {|{"a":0.1,"b":0.33333333333333331,"s":"x\"y\u000a","l":[1,null]}|}
    line;
  match E.parse line with
  | Ok doc ->
    Alcotest.(check (option (float 0.0))) "round trip"
      (Some (1.0 /. 3.0))
      (Option.bind (E.member "b" doc) Jsonl.to_float)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "wallbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "median and quartiles" `Quick test_median_and_quartiles;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "interval union" `Quick test_union;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "nine of ten pairs" `Quick test_nine_of_ten;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "median gap vs parent spread" `Quick
            test_median_gap_must_exceed_parent_spread;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
          Alcotest.test_case "worse" `Quick test_worse;
        ] );
      ("jsonl", [ Alcotest.test_case "compact line" `Quick test_jsonl ]);
    ]
