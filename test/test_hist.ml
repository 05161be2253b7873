(* The bounded quantile engine behind every service meter: exact
   count/total/mean/min/max, bucketed quantiles clamped to [min, max],
   telemetry that stays one size however long it runs, and the storm
   printer's p999 sample floor. *)

open Fastrule
module Hist = Plane_hist

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 0.0))

let hist_of values =
  let h = Hist.create () in
  List.iter (Hist.record h) values;
  h

let test_summary_exact_fields () =
  let s = Hist.summary (hist_of [ 3; 1; 2; 10 ]) in
  check_int "count" 4 s.Measure.count;
  check_float "total" 16.0 s.Measure.total;
  check_float "mean" 4.0 s.Measure.mean;
  check_float "min" 1.0 s.Measure.min;
  check_float "max" 10.0 s.Measure.max;
  let h = Hist.create () in
  List.iter (Hist.record_ms h) [ 1.5; 2.5; 0.25 ];
  let s = Hist.summary ~scale:1e6 h in
  check_float "ms total" 4.25 s.Measure.total;
  check_float "ms min" 0.25 s.Measure.min;
  check_float "ms max" 2.5 s.Measure.max

let test_summary_empty () =
  let s = Hist.summary (Hist.create ()) in
  check "all-zero summary" true (s = Measure.summarize [||])

let test_constant_series () =
  let h = Hist.create () in
  for _ = 1 to 1_000 do
    Hist.record_ms h 0.6
  done;
  let s = Hist.summary ~scale:1e6 h in
  check_float "p50 exact" 0.6 s.Measure.p50;
  check_float "p95 exact" 0.6 s.Measure.p95;
  check_float "p99 exact" 0.6 s.Measure.p99

let test_all_zero_series () =
  let s = Hist.summary (hist_of (List.init 50 (fun _ -> 0))) in
  check_float "p50" 0.0 s.Measure.p50;
  check_float "p99" 0.0 s.Measure.p99;
  check_float "max" 0.0 s.Measure.max;
  (* Empty drains meter 0 TCAM ops each; their quantiles read 0. *)
  let t = Telemetry.create () in
  for _ = 1 to 20 do
    Telemetry.record_drain t ~queue_depth:0 ~applied:0 ~failed:0
      ~firmware_ms:0.0 ~hardware_ms:0.0 ~tcam_ops:0 ~moves:0 ~wall_ms:0.01
  done;
  let ops = Telemetry.drain_ops t in
  check_float "empty drains: p50 ops" 0.0 ops.Measure.p50;
  check_float "empty drains: p99 ops" 0.0 ops.Measure.p99

(* Each bucketed quantile sits in the bucket holding the nearest-rank
   value, so it is within one 2^(1/8) ratio of Measure.summarize's. *)
let test_random_within_one_bucket () =
  let rng = Rng.create ~seed:2018 in
  let bound = (1.0 /. 8.0) +. 1e-9 in
  let within name exact got =
    if Float.abs (Float.log2 (got /. exact)) > bound then
      Alcotest.failf "%s: bucketed %g vs exact %g" name got exact
  in
  for _ = 1 to 200 do
    let n = 1 + Rng.int rng 2_000 in
    (* log-uniform over [1, 2^30] *)
    let values =
      List.init n (fun _ ->
          int_of_float (Float.pow 2.0 (30.0 *. Rng.float rng)))
    in
    let got = Hist.summary (hist_of values) in
    let exact =
      Measure.summarize (Array.of_list (List.map float_of_int values))
    in
    check_int "count" exact.Measure.count got.Measure.count;
    check_float "total" exact.Measure.total got.Measure.total;
    check_float "min" exact.Measure.min got.Measure.min;
    check_float "max" exact.Measure.max got.Measure.max;
    within "p50" exact.Measure.p50 got.Measure.p50;
    within "p95" exact.Measure.p95 got.Measure.p95;
    within "p99" exact.Measure.p99 got.Measure.p99
  done

let drain t k =
  Telemetry.record_drain t ~queue_depth:(k mod 17) ~applied:(k mod 9)
    ~failed:(k mod 3)
    ~firmware_ms:(float_of_int (k mod 101) *. 0.013)
    ~hardware_ms:(float_of_int (k mod 13) *. 0.6)
    ~tcam_ops:(k mod 13) ~moves:(k mod 5)
    ~wall_ms:(float_of_int (1 + (k mod 997)) *. 0.001)

let test_telemetry_bounded_memory () =
  let words calls =
    let t = Telemetry.create () in
    for k = 1 to calls do
      drain t k
    done;
    Obj.reachable_words (Obj.repr t)
  in
  check_int "same size after 100 and 100,000 drains" (words 100)
    (words 100_000)

let test_histograms_cover_every_drain () =
  let t = Telemetry.create () in
  for k = 1 to 500 do
    drain t k
  done;
  let total (h : Telemetry.histogram) = Array.fold_left ( + ) 0 h.counts in
  let ascending (h : Telemetry.histogram) =
    let ok = ref true in
    Array.iteri
      (fun i b -> if i > 0 && b <= h.bounds.(i - 1) then ok := false)
      h.bounds;
    !ok && Array.for_all (fun c -> c > 0) h.counts
  in
  let lat = Telemetry.latency_histogram t
  and mv = Telemetry.moves_histogram t in
  check_int "latency counts sum to drains" 500 (total lat);
  check_int "moves counts sum to drains" 500 (total mv);
  check "latency buckets ascending, non-empty" true (ascending lat);
  check "moves buckets ascending, non-empty" true (ascending mv);
  check "max wall inside the top bucket" true
    ((Telemetry.wall_ms t).Measure.max
    < lat.bounds.(Array.length lat.bounds - 1))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let storm_result samples =
  let lat =
    {
      Plane.p50 = 1_000.0;
      p99 = 2_000.0;
      p999 = 3_000.0;
      mean = 1_100.0;
      max = 4_000.0;
      samples;
    }
  in
  {
    Plane.spec = Plane.default_spec;
    algo = Firmware.FR_O Store.Bit_backend;
    domains = 1;
    applied = 0;
    failed = 0;
    flushes = 0;
    storm_wall_ms = 0.0;
    tcam_lat = lat;
    soft_lat = lat;
    lookups = samples;
    hits = 0;
    misses = samples;
    retired_hits = 0;
    epochs_seen = 1;
    soft_rebuilds = 0;
    agree = samples;
    disagree = 0;
  }

let test_p999_sample_floor () =
  let text n = Format.asprintf "%a" Plane.pp_result (storm_result n) in
  check "9,999 samples: p999 withheld" true
    (contains (text 9_999) "p999 n/a (<10k samples)"
    && not (contains (text 9_999) "p999 3000"));
  check "10,000 samples: p999 printed" true
    (contains (text 10_000) "p999 3000"
    && not (contains (text 10_000) "n/a"))

let suite =
  [
    ( "hist",
      [
        Alcotest.test_case "summary: exact count/total/mean/min/max" `Quick
          test_summary_exact_fields;
        Alcotest.test_case "summary of nothing is all zero" `Quick
          test_summary_empty;
        Alcotest.test_case "constant series reports its value" `Quick
          test_constant_series;
        Alcotest.test_case "all-zero series reports 0" `Quick
          test_all_zero_series;
        Alcotest.test_case "random series within one bucket of exact" `Quick
          test_random_within_one_bucket;
        Alcotest.test_case "telemetry memory is bounded" `Quick
          test_telemetry_bounded_memory;
        Alcotest.test_case "telemetry histograms cover every drain" `Quick
          test_histograms_cover_every_drain;
        Alcotest.test_case "storm printer: p999 needs 10k samples" `Quick
          test_p999_sample_floor;
      ] );
  ]
