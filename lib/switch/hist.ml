(* 8 sub-buckets per power of two: relative bucket width 2^(1/8) - 1,
   about 9%.  64 powers of two cover any non-negative int. *)
let sub = 8.0
let n_buckets = 64 * 8

(* [min] is meaningful only once [total > 0]. *)
type t = {
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () = { counts = Array.make n_buckets 0; total = 0; sum = 0; min = 0; max = 0 }

let bucket_of v =
  if v <= 1 then 0
  else Int.min (n_buckets - 1) (int_of_float (Float.log2 (float_of_int v) *. sub))

let record t v =
  let v = Int.max v 0 in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  if t.total = 0 || v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  t.total <- t.total + 1;
  t.sum <- t.sum + v

let record_ms t ms = record t (int_of_float (Float.round (ms *. 1e6)))
let count t = t.total
let max_ns t = t.max
let mean_ns t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total

(* Scan up from the min's bucket to the first that reaches the nearest
   rank; the max's bucket always does. *)
let quantile t p =
  if t.total = 0 then 0.0
  else begin
    let target = p *. float_of_int t.total and top = bucket_of t.max in
    let rec scan b cum =
      let cum = cum + t.counts.(b) in
      if b >= top || (t.counts.(b) > 0 && float_of_int cum >= target) then b
      else scan (b + 1) cum
    in
    let mid = Float.pow 2.0 ((float_of_int (scan (bucket_of t.min) 0) +. 0.5) /. sub) in
    Float.min (float_of_int t.max) (Float.max (float_of_int t.min) mid)
  end

let p50 t = quantile t 0.50
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let summary ?(scale = 1.0) t =
  let f v = v /. scale in
  {
    Measure.count = t.total;
    total = f (float_of_int t.sum);
    mean = f (mean_ns t);
    min = f (float_of_int t.min);
    max = f (float_of_int t.max);
    p50 = f (quantile t 0.50);
    p95 = f (quantile t 0.95);
    p99 = f (quantile t 0.99);
  }

let buckets t =
  List.filter_map
    (fun b ->
      if t.counts.(b) = 0 then None
      else Some (Float.pow 2.0 (float_of_int (b + 1) /. sub), t.counts.(b)))
    (List.init n_buckets Fun.id)

let merge ~into src =
  Array.iteri (fun b n -> into.counts.(b) <- into.counts.(b) + n) src.counts;
  if src.total > 0 && (into.total = 0 || src.min < into.min) then into.min <- src.min;
  into.max <- Int.max into.max src.max;
  into.total <- into.total + src.total;
  into.sum <- into.sum + src.sum
