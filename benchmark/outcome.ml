(* What one workload run reports, and the helpers every workload uses to
   turn raw samples into metrics. *)

type t = {
  correct : bool;  (** every oracle agreed *)
  attempted : int;  (** operations in the measured phase *)
  failed : int;  (** operations the system answered with an error *)
  metrics : (string * float) list;
      (** end-to-end metrics (untraced run) or per-layer metrics (traced) *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let ms_of_ns ns = float_of_int ns /. 1e6

(* The measured phase is cut into [blocks] consecutive, equal runs of
   operations, grouped into windows of [window] neighbouring blocks (a
   window lasts about 1.5 s at --seconds 12).  Every end-to-end timing is
   computed per block; each window keeps its quickest block, and the
   figure is the median over windows.  The host slows every core by up to
   2× for seconds at a time and never speeds one up: a spell shorter than
   a window is dropped, a longer one must cover half the windows to move
   the median.  Some workloads also slow down as they run (their data
   scatter, their logs grow), so the quickest block is taken among
   neighbours only, and the median over windows still follows the whole
   run. *)
let blocks = 32
let window = 4

let steady ~better xs =
  let pick = match better with `Lower -> Float.min | `Higher -> Float.max in
  Quantile.median
    (Array.init (blocks / window) (fun w ->
         let sub = Array.sub xs (w * window) window in
         Array.fold_left pick sub.(0) sub))

(* The block the [i]-th of [n] operations falls in, and the first
   operation of block [b] (of [blocks] for the end). *)
let block_of ~n i = i * blocks / n
let block_start ~n b = ((b * n) + blocks - 1) / blocks

(* The latencies ([lat i], ms) of the operations [keep] selects among
   [0, n), grouped by block. *)
let by_block ~n ~keep lat =
  let acc = Array.make blocks [] in
  for i = n - 1 downto 0 do
    if keep i then begin
      let b = block_of ~n i in
      acc.(b) <- lat i :: acc.(b)
    end
  done;
  Array.map Array.of_list acc

(* Geometric mean, p50 / p90 / p99 of one set of latencies in ms, with
   its count. *)
let describe label xs =
  if Array.length xs = 0 then Printf.sprintf "latency %-20s n=0" label
  else
    let s = Quantile.sorted xs in
    Printf.sprintf "latency %-20s n=%-7d gmean=%.4f p50=%.4f p90=%.4f p99=%.4f ms" label
      (Array.length s) (Quantile.geomean s) (Quantile.of_sorted s 0.5) (Quantile.of_sorted s 0.9)
      (Quantile.of_sorted s 0.99)

let q xs p = if Array.length xs = 0 then 0.0 else Quantile.of_sorted (Quantile.sorted xs) p

(* Operations per second. *)
let rate ~ops ~ns = float_of_int ops /. (float_of_int ns /. 1e9)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Busy time (span self times in µs) as a share of the measured phase. *)
let share ~wall_ns self_us = Array.fold_left ( +. ) 0.0 self_us *. 1e3 /. float_of_int wall_ns

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* One latency figure over several classes of operation (a strategy's
   accesses, a statement type): per block, the geometric mean over the
   classes of each one's [stat]; then {!steady} over blocks.  Each class
   weighs the same, however fast it is, so a change to any one of them
   moves the figure, and no quantile lands on the seam between two
   classes' latencies. *)
let blocked stat classes =
  steady ~better:`Lower
    (Array.init blocks (fun b ->
         Quantile.geomean
           (Array.of_list
              (List.filter_map
                 (fun (_, per_block) ->
                   if Array.length per_block.(b) = 0 then None else Some (stat per_block.(b)))
                 classes))))

(* A class's typical latency is its geometric mean, not its median: the
   median of a class made of two kinds of operation — a P1 selection and
   a P2 join under AR, a cache hit and a recompute under CI, each near
   half the class — sits on the seam between them and jumps threefold
   with a block's mix, where the geometric mean moves with the mix. *)
let typical = Quantile.geomean
let p90 xs = q xs 0.9

(* The end-to-end metrics every workload reports.  [reads] and [writes]
   are the latencies of each class of read and write, grouped by block
   ({!by_block}); [throughput] is each block's operations per second.
   [sim_ms] is the priced simulated cost of the measured phase, [n_reads]
   the number of reads in it. *)
let end_to_end ~throughput ~reads ~writes ~sim_ms ~n_reads ~setup_s ~heap_mb =
  let metrics =
    [
      ("throughput_ops_s", steady ~better:`Higher throughput);
      ("read_gmean_ms", blocked typical reads);
      ("read_p90_ms", blocked p90 reads);
      ("write_gmean_ms", blocked typical writes);
      ("write_p90_ms", blocked p90 writes);
      ("sim_ms_per_read", ratio sim_ms (float_of_int n_reads));
      ("setup_s", setup_s);
      ("heap_peak_mb", heap_mb);
    ]
  in
  let notes =
    Printf.sprintf "throughput by block, in block order (ops/s): %s"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") throughput)))
    :: List.map
         (fun (name, per_block) -> describe name (Array.concat (Array.to_list per_block)))
         (reads @ writes)
  in
  (metrics, notes)

let phases ~setup_s ~wall_ns ~oracle_ns =
  Printf.sprintf "phases: setup %.2f s  measured %.2f s  oracle %.2f s"
    setup_s (float_of_int wall_ns /. 1e9) (float_of_int oracle_ns /. 1e9)

(* Setup run [reps] times; all but the last result are released with
   [discard].  Returns the last result and the median setup time. *)
let repeat_setup ~reps ~discard f =
  let times = Array.make reps 0.0 in
  let rec go i =
    Gc.compact ();
    let t0 = Spans.now () in
    let v = f () in
    times.(i) <- float_of_int (Spans.now () - t0) /. 1e9;
    if i = reps - 1 then v
    else begin
      discard v;
      go (i + 1)
    end
  in
  let v = go 0 in
  (v, Quantile.median times)
