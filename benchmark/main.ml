(* The wall-clock benchmark.  Run from the repository root:

     main.exe --workload W --seed N --seconds S --trace 0|1
       one workload in this process; the last line of standard output is
       the JSON result (end-to-end metrics untraced, per-layer traced)
     main.exe run --seed N [--seconds S] [--out FILE] [--trace FILE]
       every workload, each in a fresh child process
     main.exe compare A.json ... -- B.json ...
       parent runs against change runs, metric by metric

   BENCHMARK.json names the workloads and metrics with their units,
   directions and bounds; this program reads it rather than repeating it. *)

open Dbproc
module Export = Obs.Export

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark: " ^ s);
      exit 2)
    fmt

(* ---------------------------------------------------------- catalogue *)

type metric = { name : string; unit_ : string; better : Verdict.better; bound : float }

type catalogue = {
  run_seconds : int;
  workload_names : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load_catalogue () =
  let text =
    try In_channel.with_open_text "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> die "%s (run from the repository root)" e
  in
  let doc =
    match Export.parse text with Ok d -> d | Error e -> die "BENCHMARK.json: %s" e
  in
  let field k o =
    match Export.member k o with Some v -> v | None -> die "BENCHMARK.json: no %S" k
  in
  let str k o =
    match field k o with
    | Export.String s -> s
    | _ -> die "BENCHMARK.json: %S is not a string" k
  in
  let list k =
    match field k doc with Export.List l -> l | _ -> die "BENCHMARK.json: %S is not a list" k
  in
  let metric o =
    {
      name = str "name" o;
      unit_ = str "unit" o;
      better =
        (match Verdict.better_of_string (str "better" o) with
        | Some b -> b
        | None -> die "BENCHMARK.json: bad \"better\" for %s" (str "name" o));
      bound = Option.value (Option.bind (Export.member "bound" o) Jsonl.to_float) ~default:0.0;
    }
  in
  {
    run_seconds =
      (match field "run_seconds" doc with
      | Export.Int n -> n
      | _ -> die "BENCHMARK.json: run_seconds is not an integer");
    workload_names = List.map (str "name") (list "workloads");
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    ("engine-read", Engine_wl.run ~update_p:0.1 ~ops_per_s:3_100);
    ("engine-write", Engine_wl.run ~update_p:0.8 ~ops_per_s:620);
    ("server-mix", Server_wl.run);
    ("cluster-txn", Cluster_wl.run);
  ]

(* ---------------------------------------------------------- arguments *)

let parse_flags ~allowed args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when List.mem k allowed -> go ((k, v) :: acc) rest
    | k :: _ ->
      die "unexpected argument %S (expected one of %s, each with a value)" k
        (String.concat " " allowed)
  in
  go [] args

let int_flag flags k ~default =
  match (List.assoc_opt k flags, default) with
  | None, Some d -> d
  | None, None -> die "%s is required" k
  | Some v, _ -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s wants an integer, not %S" k v)

(* ------------------------------------------------------------ results *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let result_json cat ~trace (r : result) =
  let metrics = if trace then cat.per_layer else cat.end_to_end in
  let metric m =
    ( m.name,
      Export.Obj
        [
          ("value", Export.Float (List.assoc m.name r.values)); ("unit", Export.String m.unit_);
        ] )
  in
  Export.Obj
    [
      ("correct", Export.Bool r.correct);
      ("attempted", Export.Int r.attempted);
      ("failed", Export.Int r.failed);
      ("metrics", Export.Obj (List.map metric metrics));
    ]

let result_of_json json =
  let get k = Export.member k json in
  match (get "correct", get "attempted", get "failed", get "metrics") with
  | ( Some (Export.Bool correct),
      Some (Export.Int attempted),
      Some (Export.Int failed),
      Some (Export.Obj ms) ) ->
    let value (name, v) =
      Option.map (fun x -> (name, x)) (Option.bind (Export.member "value" v) Jsonl.to_float)
    in
    Some { correct; attempted; failed; values = List.filter_map value ms }
  | _ -> None

(* Run this executable again and return its result line, parsed; the
   child's other lines are echoed as they come. *)
let child_result args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read last =
    match input_line ic with
    | line ->
      if not (String.starts_with ~prefix:"{" line) then print_endline ("  " ^ line);
      read (Some line)
    | exception End_of_file -> last
  in
  let last = read None in
  close_in ic;
  match (Unix.waitpid [] pid, last) with
  | (_, Unix.WEXITED _), Some line -> (
    match Export.parse line with Ok json -> result_of_json json | Error _ -> None)
  | _ -> None

(* ------------------------------------------------------------- modes *)

let drive cat args =
  let flags =
    parse_flags args
      ~allowed:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--spans"; "--untraced-ops-s" ]
  in
  let workload =
    match List.assoc_opt "--workload" flags with
    | Some w when List.mem_assoc w workloads -> w
    | Some w -> die "unknown workload %S (%s)" w (String.concat ", " (List.map fst workloads))
    | None -> die "--workload is required"
  in
  let seed = int_flag flags "--seed" ~default:None in
  let seconds = int_flag flags "--seconds" ~default:(Some cat.run_seconds) in
  if seconds < 1 then die "--seconds must be at least 1";
  let trace =
    match List.assoc_opt "--trace" flags with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace wants 0 or 1, not %S" v
  in
  (* Tracing overhead needs the untraced throughput, from a fresh process. *)
  let untraced_ops_s =
    match (trace, List.assoc_opt "--untraced-ops-s" flags) with
    | false, _ -> 0.0
    | true, Some v -> (
      match float_of_string_opt v with Some x -> x | None -> die "bad --untraced-ops-s %S" v)
    | true, None -> (
      let args =
        [
          "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
          string_of_int seconds; "--trace"; "0";
        ]
      in
      match child_result args with
      | Some r -> List.assoc "throughput_ops_s" r.values
      | None -> die "the untraced run of %s failed" workload)
  in
  Printf.printf "workload %s seed %d seconds %d trace %d nproc %d ocaml %s\n%!" workload seed
    seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let (outcome : Outcome.t), spans = (List.assoc workload workloads) ~seed ~seconds ~trace in
  Option.iter (Spans.write_tsv spans) (List.assoc_opt "--spans" flags);
  let reported =
    if not trace then outcome.metrics
    else
      ( "trace.overhead_ratio",
        untraced_ops_s /. List.assoc "throughput_ops_s" outcome.metrics )
      :: outcome.metrics
  in
  let metrics = if trace then cat.per_layer else cat.end_to_end in
  let values =
    List.map
      (fun m ->
        match List.assoc_opt m.name reported with
        | Some v -> (m.name, v)
        (* a layer this workload never enters did no work *)
        | None when trace -> (m.name, 0.0)
        | None -> die "workload %s does not report %s" workload m.name)
      metrics
  in
  List.iter print_endline outcome.notes;
  List.iter
    (fun m -> Printf.printf "%-40s %14.6f %s\n" m.name (List.assoc m.name values) m.unit_)
    metrics;
  Printf.printf "correct %b  attempted %d  failed %d  error_rate %g\n" outcome.correct
    outcome.attempted outcome.failed
    (float_of_int outcome.failed /. float_of_int (Int.max 1 outcome.attempted));
  let r =
    { correct = outcome.correct; attempted = outcome.attempted; failed = outcome.failed; values }
  in
  print_endline (Jsonl.to_string (result_json cat ~trace r));
  exit (if outcome.correct then 0 else 1)

let write_json path json =
  Out_channel.with_open_text path (fun oc -> output_string oc (Jsonl.to_string json ^ "\n"))

let run_all cat args =
  let flags = parse_flags args ~allowed:[ "--seed"; "--seconds"; "--out"; "--trace" ] in
  let seed = int_flag flags "--seed" ~default:None in
  let seconds = int_flag flags "--seconds" ~default:(Some cat.run_seconds) in
  let trace_file = List.assoc_opt "--trace" flags in
  let common w =
    [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; string_of_int seconds ]
  in
  let results =
    List.map
      (fun w ->
        Printf.printf "== %s\n%!" w;
        let untraced = child_result (common w @ [ "--trace"; "0" ]) in
        let traced =
          match (trace_file, untraced) with
          | Some file, Some u ->
            Printf.printf "== %s (traced)\n%!" w;
            let ops_s = List.assoc "throughput_ops_s" u.values in
            child_result
              (common w
              @ [
                  "--trace"; "1"; "--spans"; Printf.sprintf "%s.%s.tsv" file w;
                  "--untraced-ops-s"; Jsonl.to_string (Export.Float ops_s);
                ])
          | _ -> None
        in
        (w, untraced, traced))
      cat.workload_names
  in
  Printf.printf "\n%-14s %-22s %16s %s\n" "workload" "metric" "value" "unit";
  List.iter
    (fun (w, untraced, _) ->
      match untraced with
      | None -> Printf.printf "%-14s FAILED\n" w
      | Some r ->
        List.iter
          (fun m ->
            Printf.printf "%-14s %-22s %16.6f %s\n" w m.name (List.assoc m.name r.values) m.unit_)
          cat.end_to_end)
    results;
  let section pick ~trace =
    Export.Obj
      (List.filter_map
         (fun (w, u, t) -> Option.map (fun r -> (w, result_json cat ~trace r)) (pick (u, t)))
         results)
  in
  let overhead (w, _, t) =
    ( w,
      match t with
      | Some r -> Export.Float (List.assoc "trace.overhead_ratio" r.values)
      | None -> Export.Null )
  in
  Option.iter
    (fun path ->
      write_json path
        (Export.Obj
           [
             ("nproc", Export.Int (Domain.recommended_domain_count ()));
             ("ocaml_version", Export.String Sys.ocaml_version);
             ("seed", Export.Int seed);
             ("seconds", Export.Int seconds);
             ("workloads", section fst ~trace:false);
             ("trace.overhead_ratio", Export.Obj (List.map overhead results));
           ]))
    (List.assoc_opt "--out" flags);
  Option.iter (fun path -> write_json path (section snd ~trace:true)) trace_file;
  let ok (_, u, t) =
    (match u with Some r -> r.correct | None -> false)
    && (trace_file = None || match t with Some r -> r.correct | None -> false)
  in
  exit (if List.for_all ok results then 0 else 1)

let compare_runs cat args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "usage: compare PARENT.json ... -- CHANGE.json ..."
  in
  let parent_files, change_files = split [] args in
  if parent_files = [] || change_files = [] then
    die "compare needs results files on both sides of --";
  let load path =
    let text =
      try In_channel.with_open_text path In_channel.input_all with Sys_error e -> die "%s" e
    in
    match Result.map (Export.member "workloads") (Export.parse text) with
    | Ok (Some (Export.Obj ws)) ->
      List.filter_map (fun (w, j) -> Option.map (fun r -> (w, r)) (result_of_json j)) ws
    | _ -> die "%s is not a results file written by run --out" path
  in
  let parents = List.map load parent_files and changes = List.map load change_files in
  let values side w name =
    Array.of_list
      (List.filter_map
         (fun runs -> Option.bind (List.assoc_opt w runs) (fun r -> List.assoc_opt name r.values))
         side)
  in
  Printf.printf "%-14s %-18s %-30s %-30s %7s  %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let parent = values parents w m.name and change = values changes w m.name in
          if Array.length parent = 0 || Array.length change = 0 then
            Printf.printf "%-14s %-18s (missing)\n" w m.name
          else begin
            let v = Verdict.judge ~better:m.better ~bound:m.bound ~parent ~change in
            let show med (q1, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
            Printf.printf "%-14s %-18s %-30s %-30s %3d/%-3d  %s\n" w m.name
              (show v.Verdict.parent_median v.Verdict.parent_quartiles)
              (show v.Verdict.change_median v.Verdict.change_quartiles)
              v.Verdict.wins v.Verdict.pairs
              (Verdict.verdict_name v.Verdict.verdict)
          end)
        cat.end_to_end)
    cat.workload_names

let () =
  match Array.to_list Sys.argv with
  | _ :: "serve-child" :: args ->
    let flags = parse_flags args ~allowed:[ "--seed"; "--trace" ] in
    Server_wl.serve_child
      ~seed:(int_flag flags "--seed" ~default:None)
      ~trace:(List.assoc_opt "--trace" flags = Some "1")
  | _ :: rest -> (
    let cat = load_catalogue () in
    if List.sort compare cat.workload_names <> List.sort compare (List.map fst workloads) then
      die "BENCHMARK.json lists workloads %s; this program runs %s"
        (String.concat ", " cat.workload_names)
        (String.concat ", " (List.map fst workloads));
    match rest with
    | "run" :: args -> run_all cat args
    | "compare" :: args -> compare_runs cat args
    | args -> drive cat args)
  | [] -> die "no arguments"
