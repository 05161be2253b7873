(* The flow-mod / lookup benchmark: one process, one domain, closed loop.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--ops N] [--out DIR]

   Each round submits one batch of flow-mods, performs the workload's
   lookups, then flushes.  Every call into the service is timed from
   here; the per-layer splits are derived from values the service
   already returns (see NOTES.md).  The last line of standard output is
   one JSON object: {correct, attempted, failed, metrics}.  With
   [--trace 0] the metrics are the end-to-end ones, with [--trace 1] the
   per-layer ones.  [--ops N] replaces the time limit by exactly N
   flow-mods, which makes every count in the output reproducible. *)

open Inputs
module Service = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Telemetry = Fr_ctrl.Telemetry
module Image = Fr_tcam.Image
module Backend = Fr_plane.Backend
module Journal = Fr_resil.Journal

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* -- small utilities --------------------------------------------------- *)

(* Sample buffers are off-heap and sized up front for the longest run the
   input stream allows, so recording samples neither grows the OCaml heap
   nor shows up in the heap peak. *)
module Vec = struct
  type t = { a : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t; mutable n : int }

  let create cap = { a = A1.create Bigarray.float64 Bigarray.c_layout (max 1 cap); n = 0 }

  let push v x =
    v.a.{v.n} <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.init v.n (fun i -> v.a.{i}) in
    Array.sort Float.compare a;
    a

  let sum v =
    let s = ref 0.0 in
    for i = 0 to v.n - 1 do
      s := !s +. v.a.{i}
    done;
    !s
end

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* A tail quantile is reported only with at least ten samples beyond it. *)
let tail_supported n p =
  n - int_of_float (Float.ceil (p *. float_of_int n)) >= 10

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

(* -- run metadata ------------------------------------------------------ *)

(* Host probes, run at the start and the end of every run.  A fixed
   integer loop shows CPU time lost to other tenants; a pointer chase
   through a 32 MB random cycle shows memory contention, which slows the
   lookups and route rebuilds measured here even when the CPU loop does
   not change.  Slow runs with slow probes were slow hosts. *)
let cpu_probe_ms () =
  let t0 = now_ns () in
  let x = ref 0 in
  for i = 1 to 50_000_000 do
    x := (!x * 31) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  ms_of_ns (now_ns () - t0)

let chase =
  lazy
    (let n = 1 lsl 22 in
     let a = A1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through every slot. *)
     let rng = Rng.create ~seed:42 in
     for i = n - 1 downto 1 do
       let j = Rng.int rng i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let mem_probe_ms () =
  let a = Lazy.force chase in
  let t0 = now_ns () in
  let j = ref 0 in
  for _ = 1 to 1 lsl 20 do
    j := a.{!j}
  done;
  ignore (Sys.opaque_identity !j);
  ms_of_ns (now_ns () - t0)

(* The filesystem type of the mount holding [path] (longest mount-point
   prefix in /proc/mounts); "unknown" where that file is unreadable. *)
let filesystem_of path =
  let path =
    if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path
  in
  match open_in "/proc/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let best = ref ("", "unknown") in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | _ :: mnt :: fs :: _ ->
               let prefix_ok =
                 mnt = "/"
                 || String.length path >= String.length mnt
                    && String.sub path 0 (String.length mnt) = mnt
                    && (String.length path = String.length mnt
                       || path.[String.length mnt] = '/')
               in
               if prefix_ok && String.length mnt >= String.length (fst !best) then
                 best := (mnt, fs)
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      snd !best

(* -- service construction ---------------------------------------------- *)

let resil spec = { Service.default_resil with Service.slow_factor = spec.slow_factor }

let build inp ~journal =
  let spec = inp.spec in
  Service.of_rules ~kind:spec.kind ~resil:(resil spec) ?journal ~domains:1
    ~shards:spec.shards ~capacity:inp.capacity inp.initial

(* -- spans --------------------------------------------------------------- *)

(* Spans live in preallocated off-heap arrays and are written out when the
   run ends.  Derived spans (drain, supervise, routes and the drain's
   firmware/commit halves) come from the durations the service returns;
   they are laid end to end inside their parent, since only their lengths
   are known from outside. *)
module Spans = struct
  let names =
    [| "submit"; "lookup"; "flush"; "flush.drain"; "flush.supervise";
       "flush.routes"; "drain.firmware"; "drain.commit" |]

  let submit = 0 and lookup = 1 and flush = 2 and drain = 3 and supervise = 4
  and routes = 5 and firmware = 6 and commit = 7

  type t = {
    name : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    round : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    start : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    stop : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    parent : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    mutable n : int;
  }

  let create cap =
    let mk () = A1.create Bigarray.int Bigarray.c_layout (max 1 cap) in
    { name = mk (); round = mk (); start = mk (); stop = mk (); parent = mk (); n = 0 }

  let add t ~name ~round ~start ~stop ~parent =
    let i = t.n in
    t.name.{i} <- name;
    t.round.{i} <- round;
    t.start.{i} <- start;
    t.stop.{i} <- stop;
    t.parent.{i} <- parent;
    t.n <- i + 1;
    i

  (* Self time per span name: duration minus the children's durations. *)
  let self_ns t =
    let child = Array.make t.n 0 in
    for i = 0 to t.n - 1 do
      let p = t.parent.{i} in
      if p >= 0 then child.(p) <- child.(p) + (t.stop.{i} - t.start.{i})
    done;
    let self = Array.make (Array.length names) 0 in
    for i = 0 to t.n - 1 do
      let k = t.name.{i} in
      self.(k) <- self.(k) + (t.stop.{i} - t.start.{i} - child.(i))
    done;
    self

  let write t path =
    let oc = open_out path in
    output_string oc "id\tname\tround\tstart_ns\tend_ns\tparent\n";
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(t.name.{i}) t.round.{i}
        t.start.{i} t.stop.{i} t.parent.{i}
    done;
    close_out oc
end

(* -- the standalone journal replay ---------------------------------------- *)

(* The traced run replays each round's accepted mods through a journal of
   its own, with the service's drain bracketing (begin, then commit or —
   every [checkpoint_every] drains — a checkpoint of the shard's table),
   timing each append and each marker write-and-flush, and measuring the
   bytes that land in the files. *)
module Replay = struct
  type t = {
    dir : string;
    js : Journal.t array;
    since_ckpt : int array;
    base : int array;  (** WAL size right after the last compaction *)
    mutable bytes : int;
    append_us : Vec.t;
    sync_us : Vec.t;
  }

  let create ~dir inp =
    Journal.ensure_dir dir;
    let n = inp.spec.shards in
    let js =
      Array.init n (fun s ->
          let j = Journal.create ~dir ~shard:s in
          Journal.checkpoint j
            ~rules:(Array.of_list (List.filter (fun (r : Rule.t) -> inp.home.(r.Rule.id) = s)
                                     (Array.to_list inp.initial)));
          j)
    in
    {
      dir;
      js;
      since_ckpt = Array.make n 0;
      base = Array.map (fun j -> file_size (Journal.path j)) js;
      bytes = 0;
      append_us = Vec.create (A1.dim inp.ops);
      sync_us = Vec.create (2 * n * rounds inp);
    }

  let timed_us vec f =
    let t0 = now_ns () in
    let x = f () in
    Vec.push vec (float_of_int (now_ns () - t0) /. 1e3);
    x

  let round t inp (fms : Agent.flow_mod array) ~rules_of_shard =
    let touched = Array.make (Array.length t.js) false in
    Array.iter
      (fun fm ->
        let id = match fm with Agent.Add r -> r.Rule.id | Set_action { id; _ } | Remove { id } -> id in
        let s = inp.home.(id) in
        touched.(s) <- true;
        ignore (timed_us t.append_us (fun () -> Journal.log_mod t.js.(s) fm)))
      fms;
    Array.iteri
      (fun s j ->
        if touched.(s) then begin
          let drain = timed_us t.sync_us (fun () -> Journal.log_begin j) in
          t.since_ckpt.(s) <- t.since_ckpt.(s) + 1;
          if t.since_ckpt.(s) >= Service.default_resil.Service.checkpoint_every then begin
            t.bytes <- t.bytes + file_size (Journal.path j) - t.base.(s);
            Journal.checkpoint j ~rules:(rules_of_shard s);
            t.since_ckpt.(s) <- 0;
            let wal = file_size (Journal.path j) in
            let table =
              match Journal.stat ~dir:t.dir ~shard:s with
              | Ok { Journal.checkpoints = (_, _, b) :: _; _ } -> b
              | _ -> 0
            in
            t.bytes <- t.bytes + wal + table;
            t.base.(s) <- wal
          end
          else
            timed_us t.sync_us (fun () -> Journal.log_commit j ~drain ~applied:0 ~failed:0)
        end)
      t.js

  let finish t =
    Array.iteri
      (fun s j ->
        Journal.sync j;
        t.bytes <- t.bytes + file_size (Journal.path j) - t.base.(s);
        Journal.close j)
      t.js;
    rm_rf t.dir
end

(* -- one measured phase -------------------------------------------------- *)

type phase = {
  svc : Service.t;
  model : int array;  (** action code of each installed pool rule, -1 if parked *)
  mutable rounds : int;
  mutable submit_ns : int;
  mutable flush_ns : int;
  mutable lookup_ns : int;
  flush_ms : Vec.t;
  lookup_us : Vec.t;
  mutable submitted : int;
  mutable applied : int;
  mutable failed_mods : int;
  mutable lookups : int;
  mutable hits : int;
  mutable wrong_lookups : int;
  mutable entries : int;  (** image entries summed over lookups *)
  mutable routes_ms : float;
  mutable supervise_ms : float;
  mutable drain_ms : float;
  mutable firmware_ms : float;
  mutable hardware_ms : float;
  mutable tcam_ops : int;
  mutable attribution_errors : int;
  mutable mod_words : float;  (** minor words inside submit + flush *)
  mutable lookup_words : float;
  mutable major0 : int;
  mutable major : int;
  hw_summary_us : Vec.t;
}

let new_phase inp svc =
  let model = Array.make (Array.length inp.pool) (-1) in
  Array.iter (fun (r : Rule.t) -> model.(r.Rule.id) <- action_code r.Rule.action) inp.initial;
  {
    svc; model; rounds = 0; submit_ns = 0; flush_ns = 0; lookup_ns = 0;
    flush_ms = Vec.create (rounds inp); lookup_us = Vec.create (A1.dim inp.draws);
    submitted = 0; applied = 0;
    failed_mods = 0; lookups = 0; hits = 0; wrong_lookups = 0; entries = 0;
    routes_ms = 0.0; supervise_ms = 0.0; drain_ms = 0.0; firmware_ms = 0.0;
    hardware_ms = 0.0; tcam_ops = 0; attribution_errors = 0; mod_words = 0.0;
    lookup_words = 0.0; major0 = (Gc.quick_stat ()).Gc.major_collections; major = 0;
    hw_summary_us = Vec.create (inp.spec.shards * rounds inp);
  }

let apply_model inp p = function
  | Agent.Add r -> p.model.(r.Rule.id) <- action_code inp.pool.(r.Rule.id).Rule.action
  | Agent.Remove { id } -> p.model.(id) <- -1
  | Agent.Set_action { id; action } -> p.model.(id) <- action_code action

let model_rules_of_shard inp p s =
  let acc = ref [] in
  Array.iteri
    (fun id a ->
      if a >= 0 && inp.home.(id) = s then
        acc := { (inp.pool.(id)) with Rule.action = action_of_code a } :: !acc)
    p.model;
  Array.of_list (List.rev !acc)

(* The id every lookup must answer (-1 for a miss): the highest-priority
   rule of the shard's store that matches, ties to the lower id — the
   order [Agent.semantic_lookup] defines.  That function re-packs the
   packet for every rule, which costs several lookups' worth per check, so
   the scan is repeated here with the packet packed once.  Lookups run
   between flushes, so store and image agree; the store is snapshotted
   once per shard per round. *)
type checker = { stores : Rule.t array option array }

let new_checker spec = { stores = Array.make spec.shards None }

let check_lookup ck p ~shard pkt =
  let rules =
    match ck.stores.(shard) with
    | Some a -> a
    | None ->
        let a = Array.of_list (Agent.rules (Shard.agent (Service.shard p.svc shard))) in
        ck.stores.(shard) <- Some a;
        a
  in
  let bits = Fr_tern.Header.packet_bits pkt in
  let best = ref None in
  Array.iter
    (fun (r : Rule.t) ->
      if Fr_tern.Ternary.matches_value r.Rule.field bits then
        match !best with
        | Some (b : Rule.t)
          when b.Rule.priority > r.Rule.priority
               || (b.Rule.priority = r.Rule.priority && b.Rule.id < r.Rule.id) -> ()
        | _ -> best := Some r)
    rules;
  match !best with Some r -> r.Rule.id | None -> -1

(* Attribution of one flush: the benchmark's outer time splits into the
   route rebuild (outer minus the report's own wall time), supervision
   (report wall minus the drains' wall) and the drains.  Each part must be
   non-negative up to clock granularity. *)
let attribution_ok ~outer_ms ~report_ms ~drains_ms =
  let tol = 0.02 +. (1e-3 *. outer_ms) in
  outer_ms -. report_ms >= -.tol && report_ms -. drains_ms >= -.tol

let run_phase inp p ~deadline_ns ~min_rounds ~max_rounds ?spans ?replay () =
  let spec = inp.spec in
  let per_round = lookups_per_round spec in
  let ck = new_checker spec in
  let answers = Array.make per_round (-1) in
  let pkts = Array.init per_round (fun k -> packet inp k) in
  let fms = Array.make spec.batch (Agent.Remove { id = 0 }) in
  let total_rounds = rounds inp in
  let continue () =
    p.rounds < total_rounds && p.rounds < max_rounds
    && (p.rounds < min_rounds || now_ns () < deadline_ns)
  in
  while continue () do
    let r = p.rounds in
    let base = r * spec.batch in
    for k = 0 to spec.batch - 1 do
      fms.(k) <- decode inp inp.ops.{base + k}
    done;
    (* submit *)
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for k = 0 to spec.batch - 1 do
      Service.submit p.svc fms.(k)
    done;
    let t1 = now_ns () in
    p.mod_words <- p.mod_words +. (Gc.minor_words () -. w0);
    p.submit_ns <- p.submit_ns + (t1 - t0);
    p.submitted <- p.submitted + spec.batch;
    Option.iter
      (fun sp ->
        ignore (Spans.add sp ~name:Spans.submit ~round:r ~start:t0 ~stop:t1 ~parent:(-1)))
      spans;
    Array.iter (apply_model inp p) fms;
    for k = 0 to per_round - 1 do
      pkts.(k) <- packet inp ((r * per_round) + k)
    done;
    (* lookups; their answers are checked after the last one, so the
       checks' own memory traffic stays out of the timed calls *)
    for k = 0 to per_round - 1 do
      let shard, pkt = pkts.(k) in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let img = Service.published p.svc ~shard in
      let answer = Image.lookup img pkt in
      let t1 = now_ns () in
      p.lookup_words <- p.lookup_words +. (Gc.minor_words () -. w0);
      p.lookup_ns <- p.lookup_ns + (t1 - t0);
      Vec.push p.lookup_us (float_of_int (t1 - t0) /. 1e3);
      answers.(k) <- (match answer with Some r -> r.Rule.id | None -> -1);
      p.entries <- p.entries + Image.entry_count img;
      Option.iter
        (fun sp ->
          ignore (Spans.add sp ~name:Spans.lookup ~round:r ~start:t0 ~stop:t1 ~parent:(-1)))
        spans
    done;
    for k = 0 to per_round - 1 do
      let shard, pkt = pkts.(k) in
      p.lookups <- p.lookups + 1;
      if answers.(k) >= 0 then p.hits <- p.hits + 1;
      if check_lookup ck p ~shard pkt <> answers.(k) then
        p.wrong_lookups <- p.wrong_lookups + 1
    done;
    Array.fill ck.stores 0 spec.shards None;
    (* flush *)
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let rep = Service.flush p.svc in
    let t1 = now_ns () in
    p.mod_words <- p.mod_words +. (Gc.minor_words () -. w0);
    p.flush_ns <- p.flush_ns + (t1 - t0);
    let outer_ms = ms_of_ns (t1 - t0) in
    Vec.push p.flush_ms outer_ms;
    let sum f = Array.fold_left (fun acc d -> acc +. f d) 0.0 rep.Service.results in
    let drains_ms = sum (fun d -> d.Shard.wall_ms) in
    let firmware_ms = sum (fun d -> d.Shard.firmware_ms) in
    p.applied <- p.applied + Service.applied rep;
    p.failed_mods <- p.failed_mods + List.length (Service.failures rep);
    p.hardware_ms <- p.hardware_ms +. sum (fun d -> d.Shard.hardware_ms);
    p.tcam_ops <-
      p.tcam_ops + Array.fold_left (fun acc d -> acc + d.Shard.tcam_ops) 0 rep.Service.results;
    p.routes_ms <- p.routes_ms +. (outer_ms -. rep.Service.wall_ms);
    p.supervise_ms <- p.supervise_ms +. (rep.Service.wall_ms -. drains_ms);
    p.drain_ms <- p.drain_ms +. drains_ms;
    p.firmware_ms <- p.firmware_ms +. firmware_ms;
    if not (attribution_ok ~outer_ms ~report_ms:rep.Service.wall_ms ~drains_ms) then
      p.attribution_errors <- p.attribution_errors + 1;
    Option.iter
      (fun sp ->
        let ns ms = int_of_float (ms *. 1e6) in
        let f = Spans.add sp ~name:Spans.flush ~round:r ~start:t0 ~stop:t1 ~parent:(-1) in
        (* Lay the derived parts end to end; the routes span takes the
           remainder so the children tile the flush exactly. *)
        let d_end = t0 + ns drains_ms in
        let s_end = min t1 (t0 + ns rep.Service.wall_ms) in
        let d = Spans.add sp ~name:Spans.drain ~round:r ~start:t0 ~stop:d_end ~parent:f in
        let fw_end = t0 + ns firmware_ms in
        ignore (Spans.add sp ~name:Spans.firmware ~round:r ~start:t0 ~stop:fw_end ~parent:d);
        ignore (Spans.add sp ~name:Spans.commit ~round:r ~start:fw_end ~stop:d_end ~parent:d);
        ignore (Spans.add sp ~name:Spans.supervise ~round:r ~start:d_end ~stop:s_end ~parent:f);
        ignore (Spans.add sp ~name:Spans.routes ~round:r ~start:s_end ~stop:t1 ~parent:f);
        (* The supervisor's adaptive threshold, standalone: one summary
           per shard per flush, as the next drain will compute it. *)
        for s = 0 to spec.shards - 1 do
          let tele = Shard.telemetry (Service.shard p.svc s) in
          let t0 = now_ns () in
          ignore (Telemetry.hw_per_op_ms tele);
          Vec.push p.hw_summary_us (float_of_int (now_ns () - t0) /. 1e3)
        done)
      spans;
    Option.iter
      (fun rp -> Replay.round rp inp fms ~rules_of_shard:(model_rules_of_shard inp p))
      replay;
    p.rounds <- r + 1
  done;
  p.major <- (Gc.quick_stat ()).Gc.major_collections - p.major0

(* -- end-of-run correctness checks ----------------------------------------- *)

(* Returns the list of failed checks (empty when all pass). *)
let final_checks inp p ~journal =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let spec = inp.spec in
  for s = 0 to spec.shards - 1 do
    match Agent.verify_consistent (Shard.agent (Service.shard p.svc s)) with
    | Ok () -> ()
    | Error e -> fail "shard %d inconsistent: %s" s e
  done;
  (* Installed set (ids, actions and shards) equals the generator's model. *)
  let same_as_model what svc =
    let expected = Array.fold_left (fun n a -> if a >= 0 then n + 1 else n) 0 p.model in
    if Service.rule_count svc <> expected then
      fail "%s: %d rules installed, model has %d" what (Service.rule_count svc) expected;
    for s = 0 to spec.shards - 1 do
      List.iter
        (fun (r : Rule.t) ->
          let id = r.Rule.id in
          if id < 0 || id >= Array.length p.model || p.model.(id) <> action_code r.Rule.action
             || inp.home.(id) <> s
          then fail "%s: rule %d on shard %d differs from the model" what id s)
        (Agent.rules (Shard.agent (Service.shard svc s)))
    done
  in
  same_as_model "service" p.svc;
  (match journal with
  | None -> ()
  | Some dir -> (
      match Service.recover ~resil:(resil spec) ~domains:1 ~journal:dir () with
      | Error e -> fail "recover: %s" e
      | Ok r ->
          if r.Service.warnings <> [] then
            fail "recover warnings: %s" (String.concat "; " r.Service.warnings);
          if r.Service.requeued <> 0 then fail "recover requeued %d mods" r.Service.requeued;
          same_as_model "recovered" r.Service.service));
  if p.attribution_errors > 0 then
    fail "%d flushes whose parts do not nest inside the outer time" p.attribution_errors;
  List.rev !errs

(* -- output --------------------------------------------------------------- *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let print_metrics metrics =
  List.iter (fun (name, unit_, v) -> Printf.printf "metric %-32s %.6g %s\n" name v unit_) metrics

(* -- main ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let ops = ref 0 and out = ref "perfbench/out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--ops" :: v :: rest -> ops := int_of_string v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let spec =
    match find_spec !workload with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun s -> s.name) specs));
        exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) || !ops < 0 then usage ();
  let traced = !trace = 1 in
  let fixed = !ops > 0 in
  Journal.ensure_dir !out;
  let tag = Printf.sprintf "%s-%d-%d" spec.name !seed (Unix.getpid ()) in
  (* Directories this run writes are removed however it ends. *)
  let run_dirs = ref [] in
  at_exit (fun () -> List.iter rm_rf !run_dirs);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
  let run_dir name =
    let d = Filename.concat !out (Printf.sprintf "%s-%s" name tag) in
    run_dirs := d :: !run_dirs;
    d
  in
  let probe_ms = cpu_probe_ms () and mem_ms = mem_probe_ms () in
  (* Rounds of a fixed-work workload (0 for one bounded by time). *)
  let target = spec.rounds_per_s * !seconds in
  let n_ops =
    if fixed then !ops - (!ops mod spec.batch)
    else if target > 0 then 2 * target * spec.batch
    else
      let want = spec.max_mods_per_s * (!seconds + 5) in
      want - (want mod spec.batch)
  in
  let inp = generate spec ~seed:!seed ~n_ops in
  Gc.compact ();
  let journal_dir k =
    if spec.journal then Some (run_dir (Printf.sprintf "journal%d" k)) else None
  in
  (* Set-up: Service.of_rules, several times; the last service is kept. *)
  let setup k =
    let dir = journal_dir k in
    let t0 = now_ns () in
    let svc = build inp ~journal:dir in
    (svc, dir, float_of_int (now_ns () - t0) /. 1e9)
  in
  (* Untraced runs repeat the set-up until it has taken six seconds in
     all (3 to 301 times) and report the median.  The host switches
     between a fast and a slow mode every second or so (NOTES.md); six
     seconds see several switches. *)
  let times = ref [] in
  let rec reps k =
    let svc, dir, dt = setup k in
    times := dt :: !times;
    let total = List.fold_left ( +. ) 0.0 !times in
    if (not (traced || fixed)) && (k < 2 || (total < 6.0 && k < 300)) then begin
      Option.iter rm_rf dir;
      Gc.compact ();
      reps (k + 1)
    end
    else (svc, dir)
  in
  let svc, jdir = reps 0 in
  let setup_s = median !times in
  let attempted p = p.submitted + p.lookups in
  let failed p = p.failed_mods + p.wrong_lookups in
  let budget_ns = !seconds * 1_000_000_000 in
  (* The untraced run needs 1000 flushes and lookups for its p99s.  A
     traced run measures half its time (or half its rounds) untraced. *)
  let min_rounds = if fixed then max_int else if traced || target > 0 then 1 else 1000 in
  let max_rounds =
    if fixed then rounds inp else if target > 0 then if traced then target / 2 else target
    else max_int
  in
  let p = new_phase inp svc in
  Gc.compact ();
  let start = now_ns () in
  (* A fixed-work run stops at three times its time anyway, so a very slow
     host still ends it in time. *)
  let budget_ns = if target > 0 then 3 * budget_ns else budget_ns in
  let deadline = if traced then start + (budget_ns / 2) else start + budget_ns in
  run_phase inp p ~deadline_ns:deadline ~min_rounds:(min min_rounds (rounds inp)) ~max_rounds ();
  let errs = ref (final_checks inp p ~journal:jdir) in
  Option.iter rm_rf jdir;
  let timed_ns p = p.submit_ns + p.flush_ns + p.lookup_ns in
  (* Every run ends here; the result must be the last line printed. *)
  let finish ph metrics =
    print_metrics [ ("failed_frac", "1", fdiv (failed ph) (attempted ph)) ];
    List.iter (fun e -> Printf.printf "check FAILED: %s\n" e) !errs;
    let correct = !errs = [] && failed ph = 0 in
    print_result ~correct ~attempted:(attempted ph) ~failed:(failed ph) metrics;
    exit (if correct then 0 else 1)
  in
  let nflush p = float_of_int p.rounds in
  let meta p extra =
    Printf.printf
      "meta {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"nproc\": %d, \"ocaml\": %S, \
       \"domains\": %d, \"journal_fs\": %S, \"cpu_probe_ms\": [%s, %s], \
       \"mem_probe_ms\": [%s, %s], \"flushes\": %d, \
       \"lookups\": %d, \"mods_submitted\": %d, \"mods_applied\": %d, \"setup_reps\": %d, \
       \"capacity_per_shard\": %d, \"rounds_target\": %d, \"stream_exhausted\": %b%s}\n"
      spec.name !seed !trace (Domain.recommended_domain_count ()) Sys.ocaml_version
      (Service.domains p.svc)
      (if spec.journal then filesystem_of !out else "none")
      (json_float probe_ms) (json_float (cpu_probe_ms ())) (json_float mem_ms)
      (json_float (mem_probe_ms ())) p.rounds p.lookups p.submitted p.applied (List.length !times) inp.capacity
      target (p.rounds >= rounds inp) extra
  in
  if not traced then begin
    let fl = Vec.sorted p.flush_ms and lk = Vec.sorted p.lookup_us in
    if not (tail_supported (Array.length fl) 0.99 && tail_supported (Array.length lk) 0.99) then
      errs := "too few samples for a p99" :: !errs;
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    in
    let metrics =
      [
        ("setup_s", "s", setup_s);
        ("flush_ms_p75", "ms", quantile fl 0.75);
        ("flush_ms_p90", "ms", quantile fl 0.9);
        ("lookup_us_p50", "us", quantile lk 0.5);
        ("hw_ms_per_mod", "ms", p.hardware_ms /. float_of_int p.applied);
        ("heap_peak_mb", "MB", heap_mb);
      ]
    in
    meta p
      (Printf.sprintf ", \"flush_ms_samples\": %d, \"lookup_us_samples\": %d, \"timed_s\": %s"
         (Array.length fl) (Array.length lk)
         (json_float (float_of_int (timed_ns p) /. 1e9)));
    print_metrics metrics;
    (* Printed, not gated.  On a shared host, flush times fall into a fast
       and a slow mode (other tenants' cache pressure comes and goes), and
       the share of each mode changes from run to run.  The throughput (a
       mean) and the flush median (which sits between the modes) follow
       that share; the lookup tails drift with the host by more than the
       median; the p99s rest on 10-40 samples.  See NOTES.md. *)
    print_metrics
      [
        ("mods_per_s", "1/s", float_of_int p.applied /. (float_of_int (p.submit_ns + p.flush_ns) /. 1e9));
        ("flush_ms_p50", "ms", quantile fl 0.5);
        ("flush_ms_p99", "ms", quantile fl 0.99);
        ("lookup_us_p95", "us", quantile lk 0.95);
        ("lookup_us_p99", "us", quantile lk 0.99);
      ];
    finish p metrics
  end
  else begin
    (* Traced run: the same rounds again on a fresh service, with spans,
       the standalone threshold summaries and the journal replay. *)
    let untraced_ns = timed_ns p in
    let rounds_a = p.rounds in
    Gc.compact ();
    let jdir_b = journal_dir 1 in
    let svc_b = build inp ~journal:jdir_b in
    let q = new_phase inp svc_b in
    let spans = Spans.create (rounds_a * (lookups_per_round spec + 7)) in
    let replay = Replay.create ~dir:(run_dir "replay") inp in
    Gc.compact ();
    run_phase inp q ~deadline_ns:max_int ~min_rounds:rounds_a ~max_rounds:rounds_a ~spans ~replay ();
    errs := !errs @ final_checks inp q ~journal:jdir_b;
    Option.iter rm_rf jdir_b;
    Replay.finish replay;
    let traced_ns = timed_ns q in
    Spans.write spans (Filename.concat !out (Printf.sprintf "trace-%s.tsv" spec.name));
    let self = Spans.self_ns spans in
    let total = float_of_int (Array.fold_left ( + ) 0 self) in
    let share k = float_of_int self.(k) /. total in
    (* Standalone layers on the same inputs. *)
    let backend_build = Vec.create spec.shards and backend_us = Vec.create (A1.dim inp.draws) in
    let backends =
      Array.init spec.shards (fun s ->
          let img = Service.published q.svc ~shard:s in
          let t0 = now_ns () in
          let b = Backend.of_image img in
          Vec.push backend_build (ms_of_ns (now_ns () - t0));
          b)
    in
    let n_draws = min (A1.dim inp.draws) (max 2000 q.lookups) in
    for i = 0 to n_draws - 1 do
      let s, pkt = packet inp i in
      let t0 = now_ns () in
      ignore (Backend.lookup backends.(s) pkt);
      Vec.push backend_us (float_of_int (now_ns () - t0) /. 1e3)
    done;
    let compile_ms =
      let slices = Array.make spec.shards [] in
      Array.iter (fun (r : Rule.t) -> let s = inp.home.(r.Rule.id) in slices.(s) <- r :: slices.(s)) inp.initial;
      let t0 = now_ns () in
      Array.iter (fun l -> ignore (Fr_dag.Build.compile_fast (Array.of_list l))) slices;
      ms_of_ns (now_ns () - t0)
    in
    let tele f =
      let acc = ref 0 in
      for s = 0 to spec.shards - 1 do
        acc := !acc + f (Shard.telemetry (Service.shard q.svc s))
      done;
      !acc
    in
    let tele_max f =
      let acc = ref 0 in
      for s = 0 to spec.shards - 1 do
        acc := max !acc (f (Shard.telemetry (Service.shard q.svc s)))
      done;
      !acc
    in
    let mean v = div (Vec.sum v) (float_of_int v.Vec.n) in
    let applied = float_of_int q.applied in
    let metrics =
      [
        ("service.submit_us", "us", float_of_int q.submit_ns /. 1e3 /. float_of_int q.submitted);
        ("service.routes_ms_per_flush", "ms", q.routes_ms /. nflush q);
        ("service.supervise_ms_per_flush", "ms", q.supervise_ms /. nflush q);
        ("agent.apply_ms_per_mod", "ms", q.drain_ms /. applied);
        ("agent.firmware_ms_per_mod", "ms", q.firmware_ms /. applied);
        ("agent.commit_ms_per_mod", "ms", (q.drain_ms -. q.firmware_ms) /. applied);
        ("tcam.ops_per_mod", "count", float_of_int (tele Telemetry.tcam_ops) /. applied);
        ("tcam.moves_per_mod", "count", float_of_int (tele Telemetry.moves) /. applied);
        ("coalesce.folded_frac", "1", fdiv (tele Telemetry.coalesced) q.submitted);
        ("shard.queue_depth_max", "count", float_of_int (tele_max Telemetry.queue_depth_max));
        ("image.lookup_words", "words", q.lookup_words /. float_of_int q.lookups);
        ("image.entries", "count", fdiv q.entries q.lookups);
        ("lookup.hit_frac", "1", fdiv q.hits q.lookups);
        ("journal.bytes_per_mod", "B", float_of_int replay.Replay.bytes /. applied);
        ("journal.checkpoints", "count", float_of_int (tele Telemetry.checkpoints));
        ("gc.minor_words_per_mod", "words", q.mod_words /. applied);
        ("gc.major_collections", "count", float_of_int q.major);
        ("telemetry.hw_summary_us", "us", mean q.hw_summary_us);
        ("backend.lookup_us_p50", "us", quantile (Vec.sorted backend_us) 0.5);
        ("backend.build_ms", "ms", mean backend_build);
        ("dag.compile_ms", "ms", compile_ms);
        ("journal.append_us", "us", mean replay.Replay.append_us);
        ("journal.sync_us", "us", mean replay.Replay.sync_us);
        ("self.submit_frac", "1", share Spans.submit);
        ("self.lookup_frac", "1", share Spans.lookup);
        ("self.supervise_frac", "1", share Spans.supervise);
        ("self.routes_frac", "1", share Spans.routes);
        ("self.firmware_frac", "1", share Spans.firmware);
        ("self.commit_frac", "1", share Spans.commit);
        ("trace.overhead_frac", "1",
          (float_of_int traced_ns -. float_of_int untraced_ns) /. float_of_int untraced_ns);
      ]
    in
    meta q
      (Printf.sprintf ", \"traced_rounds\": %d, \"spans\": %d, \"hw_summary_samples\": %d, \
                       \"backend_lookup_samples\": %d"
         q.rounds spans.Spans.n q.hw_summary_us.Vec.n backend_us.Vec.n);
    print_metrics metrics;
    (* With a fixed op count these are reproducible to the bit; the
       self-test compares them across processes and seeds. *)
    if fixed then
      Printf.printf
        "counts applied %d tcam_ops %d moves %d hw_ms %h mod_words %.0f lookup_words %.0f \
         journal_bytes %d hits %d checkpoints %d\n"
        q.applied q.tcam_ops (tele Telemetry.moves) q.hardware_ms q.mod_words q.lookup_words
        replay.Replay.bytes q.hits (tele Telemetry.checkpoints);
    (* Not a correctness failure: a later change that shrinks this layer
       is a gain, but the workload then no longer isolates it. *)
    let chosen =
      let rec find i = if Spans.names.(i) = spec.layer then i else find (i + 1) in
      share (find 0)
    in
    Printf.printf "attribution %s: %s has %.3f of the timed work%s\n" spec.name spec.layer
      chosen (if chosen >= 0.5 then "" else " (WARNING: below half)");
    finish q metrics
  end
