(* Workload definitions and seeded input generation.

   Everything a run feeds the service — the rule pool, the initial table,
   every flow-mod and every packet — is produced here from the seed before
   any timing starts.  Flow-mods and packet draws are stored encoded in
   off-heap Bigarrays, so the inputs neither inflate the OCaml heap the
   benchmark reports nor give the GC extra work to trace. *)

module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Rng = Fr_prng.Rng
module Agent = Fr_switch.Agent
module Firmware = Fr_switch.Firmware
module Partition = Fr_ctrl.Partition
module Zipf = Fr_workload.Zipf
module A1 = Bigarray.Array1

type lookups = Per_flush | Per_mod

type spec = {
  name : string;
  rules : int;  (** installed rules the flapping mix hovers around *)
  shards : int;
  kind : Firmware.algo_kind;
  batch : int;  (** mods submitted per flush *)
  lookups : lookups;
  journal : bool;
  slow_factor : float;  (** adaptive slow-call factor; 0 = off *)
  layer : string;
      (** the span whose self time this workload was chosen to stress *)
  max_mods_per_s : int;
      (** generation bound: the stream holds this rate times the run
          length (with headroom), so a run never exhausts it *)
  rounds_per_s : int;
      (** 0: run for [--seconds].  Otherwise run this many rounds per
          second of [--seconds], a fixed amount of work: for a workload
          whose flush cost grows with the rounds already run, a time
          bound would charge a faster program for the longer history it
          builds in the same time. *)
}

let specs =
  [
    {
      name = "churn-32k";
      rules = 32_000;
      shards = 4;
      kind = Firmware.FR_O Fr_sched.Store.Bit_backend;
      batch = 64;
      lookups = Per_flush;
      journal = false;
      slow_factor = 0.0;
      layer = "flush.routes";
      max_mods_per_s = 40_000;
      rounds_per_s = 0;
    };
    {
      name = "lookup-mix";
      rules = 4_000;
      shards = 4;
      kind = Firmware.FR_O Fr_sched.Store.Bit_backend;
      batch = 64;
      lookups = Per_mod;
      journal = false;
      slow_factor = 0.0;
      layer = "lookup";
      max_mods_per_s = 40_000;
      rounds_per_s = 0;
    };
    {
      name = "durable-supervised";
      rules = 2_000;
      shards = 4;
      kind = Firmware.FR_SB Fr_sched.Store.Bit_backend;
      batch = 16;
      lookups = Per_flush;
      journal = true;
      slow_factor = 4.0;
      layer = "flush.supervise";
      max_mods_per_s = 80_000;
      rounds_per_s = 180;
    };
  ]

let find_spec name = List.find_opt (fun s -> s.name = name) specs

(* Zipf skew of the packet stream and the flows drawn per shard.  Flow
   popularity shifts every [epoch_rounds] rounds: each epoch draws from a
   fresh flow universe, so a run averages over many sets of hot flows
   instead of hanging on where one set's rules happen to sit. *)
let skew = 1.1
let flows_per_shard = 4096
let epoch_rounds = 2

(* The pool holds the table plus this share again of parked rules: an Add
   re-installs a parked rule, a Remove parks an installed one. *)
let pool_extra_frac = 8

type t = {
  spec : spec;
  seed : int;
  pool : Rule.t array;  (** rule id = index *)
  home : int array;  (** shard of each pool rule ({!Partition.route_rule}) *)
  initial : Rule.t array;
  capacity : int;  (** TCAM slots per shard *)
  ops : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  shard_rules : Rule.t array array;  (** each shard's share of the pool *)
  draws : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
      (** lookup [i] probes shard [draws.{i} / flows_per_shard] with flow
          rank [draws.{i} mod flows_per_shard] *)
  universes : (int * Zipf.Flows.t) option array;
      (** per shard, the flow universe of the epoch last asked for *)
}

let lookups_per_round spec =
  match spec.lookups with Per_flush -> 1 | Per_mod -> spec.batch

let rounds t = A1.dim t.ops / t.spec.batch

(* The packet of lookup [i]: its flow rank resolved in the flow universe
   of its round's epoch.  A universe carries a Zipf table of
   [flows_per_shard] floats, so it is built once per shard and epoch, not
   per packet: that garbage would otherwise feed the major GC whose work
   lands inside the timed calls. *)
let packet t i =
  let d = t.draws.{i} in
  let shard = d / flows_per_shard in
  let epoch = i / lookups_per_round t.spec / epoch_rounds in
  let flows =
    match t.universes.(shard) with
    | Some (e, f) when e = epoch -> f
    | _ ->
        let f =
          Zipf.Flows.create ~rules:t.shard_rules.(shard)
            ~seed:((((t.seed * 1_000_003) + epoch) * 8) + shard)
            ~flows:flows_per_shard ~skew
        in
        t.universes.(shard) <- Some (epoch, f);
        f
  in
  (shard, Zipf.Flows.packet_of flows (d mod flows_per_shard))

(* -- op codec ---------------------------------------------------------- *)

(* [id lsl 8 lor action lsl 2 lor kind]: kind 0 Add, 1 Remove,
   2 Set_action; action 0 Drop, 1 Controller, 2 + p Forward p. *)
let action_code = function
  | Rule.Drop -> 0
  | Rule.Controller -> 1
  | Rule.Forward p -> 2 + p

let action_of_code = function
  | 0 -> Rule.Drop
  | 1 -> Rule.Controller
  | c -> Rule.Forward (c - 2)

let decode t code =
  let id = code lsr 8 in
  match code land 3 with
  | 0 -> Agent.Add t.pool.(id)
  | 1 -> Agent.Remove { id }
  | _ -> Agent.Set_action { id; action = action_of_code ((code lsr 2) land 63) }

(* -- an O(1) random-access id set -------------------------------------- *)

module Idset = struct
  type s = { items : int array; pos : int array; mutable n : int }

  let create cap = { items = Array.make cap 0; pos = Array.make cap (-1); n = 0 }

  let add s id =
    s.items.(s.n) <- id;
    s.pos.(id) <- s.n;
    s.n <- s.n + 1

  let remove s id =
    let i = s.pos.(id) in
    let last = s.items.(s.n - 1) in
    s.items.(i) <- last;
    s.pos.(last) <- i;
    s.pos.(id) <- -1;
    s.n <- s.n - 1

  let pick s rng = s.items.(Rng.int rng s.n)
end

(* -- generation -------------------------------------------------------- *)

(* The flapping mix: 45% Add, 45% Remove, 10% Set_action in expectation.
   P(Add) = 0.9 R / (R + R0), with R the parked rules and R0 its starting
   value, so the table size reverts to its start instead of random-walking
   and an Add is only drawn while a parked rule exists.  Every op is valid
   against the model, so no op fails on a correct service. *)
let gen_ops rng ~pool ~installed ~parked ~n =
  let ops = A1.create Bigarray.int Bigarray.c_layout n in
  let actions = Array.map (fun (r : Rule.t) -> action_code r.Rule.action) pool in
  let r0 = float_of_int parked.Idset.n in
  for i = 0 to n - 1 do
    let u = Rng.float rng in
    let r = float_of_int parked.Idset.n in
    let p_add = 0.9 *. r /. (r +. r0) in
    let code =
      if u < p_add then begin
        let id = Idset.pick parked rng in
        Idset.remove parked id;
        Idset.add installed id;
        actions.(id) <- action_code pool.(id).Rule.action;
        id lsl 8
      end
      else if u < 0.9 then begin
        let id = Idset.pick installed rng in
        Idset.remove installed id;
        Idset.add parked id;
        (id lsl 8) lor 1
      end
      else begin
        let id = Idset.pick installed rng in
        let rec fresh () =
          let a = if Rng.chance rng 0.2 then 0 else 2 + Rng.int rng 48 in
          if a = actions.(id) then fresh () else a
        in
        let a = fresh () in
        actions.(id) <- a;
        (id lsl 8) lor (a lsl 2) lor 2
      end
    in
    ops.{i} <- code
  done;
  ops

(* The rule table is one fixed ACL4 table per workload, like a benchmark
   data set; the seed picks which of its rules start installed, the
   flow-mod stream and the packets.  A table's structure decides how deep
   lookups scan, so tables drawn per seed widened the seed-to-seed spread
   of lookup latency (see NOTES.md). *)
let table_seed = 1

let generate spec ~seed ~n_ops =
  let n_pool = spec.rules + (spec.rules / pool_extra_frac) in
  let pool = Fr_workload.Dataset.generate Fr_workload.Dataset.ACL4 ~seed:table_seed ~n:n_pool in
  let partition = Partition.create ~shards:spec.shards Partition.Hash_id in
  let home = Array.map (Partition.route_rule partition) pool in
  let rng = Rng.create ~seed:((seed * 7919) + 17) in
  let order = Array.init n_pool Fun.id in
  Rng.shuffle rng order;
  let installed = Idset.create n_pool and parked = Idset.create n_pool in
  Array.iteri
    (fun i id -> if i < spec.rules then Idset.add installed id else Idset.add parked id)
    order;
  let initial =
    Array.init spec.rules (fun i -> pool.(installed.Idset.items.(i)))
  in
  Array.sort (fun (a : Rule.t) (b : Rule.t) -> compare a.Rule.id b.Rule.id) initial;
  let slice = Array.make spec.shards 0 in
  Array.iter (fun s -> slice.(s) <- slice.(s) + 1) home;
  (* Room for the whole pool slice, so a flapping Add never meets a full
     table, plus headroom for the layouts' spare rows. *)
  let capacity = (3 * Array.fold_left max 0 slice / 2) + 64 in
  let ops = gen_ops rng ~pool ~installed ~parked ~n:n_ops in
  let shard_rules =
    Array.init spec.shards (fun s ->
        Array.of_list
          (List.filter (fun (r : Rule.t) -> home.(r.Rule.id) = s) (Array.to_list pool)))
  in
  let zipf = Zipf.create ~n:flows_per_shard ~skew in
  let n_draws = n_ops / spec.batch * lookups_per_round spec in
  let draws = A1.create Bigarray.int Bigarray.c_layout n_draws in
  for i = 0 to n_draws - 1 do
    let s = Rng.int rng spec.shards in
    draws.{i} <- (s * flows_per_shard) + Zipf.sample zipf rng
  done;
  {
    spec; seed; pool; home; initial; capacity; ops; shard_rules; draws;
    universes = Array.make spec.shards None;
  }
