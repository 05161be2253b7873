module Rng = Fr_prng.Rng
module Rule = Fr_tern.Rule
module Header = Fr_tern.Header
module Op = Fr_tcam.Op
module Tcam = Fr_tcam.Tcam
module Fault = Fr_tcam.Fault
module Algo = Fr_sched.Algo
module Sabotage = Fr_sched.Sabotage
module Firmware = Fr_switch.Firmware
module Agent = Fr_switch.Agent
module Measure = Fr_switch.Measure
module Journal = Fr_resil.Journal
module Service = Fr_ctrl.Service
module Shard = Fr_ctrl.Shard
module Telemetry = Fr_ctrl.Telemetry
module Breaker = Fr_resil.Breaker

type outcome =
  | Applied
  | Rejected of string
  | Verify_failed of string
  | Faulted of string

let pp_outcome ppf = function
  | Applied -> Format.pp_print_string ppf "applied"
  | Rejected e -> Format.fprintf ppf "rejected (%s)" e
  | Verify_failed e -> Format.fprintf ppf "VERIFY FAILED (%s)" e
  | Faulted e -> Format.fprintf ppf "faulted (%s)" e

type divergence = { event : int; scheduler : string; detail : string }

let pp_divergence ppf d =
  Format.fprintf ppf "[%s] %s: %s"
    (if d.event < 0 then "end" else string_of_int d.event)
    d.scheduler d.detail

type config = {
  probes : int;
  verify : bool;
  record : bool;
  sabotage : (string * Sabotage.mode) list;
  fault_prob : float;
  fault_seed : int;
  max_failures : int;
}

let default_config =
  {
    probes = 8;
    verify = true;
    record = false;
    sabotage = [];
    fault_prob = 0.;
    fault_seed = 0;
    max_failures = -1;
  }

type column = {
  scheduler : string;
  applied : int;
  rejected : int;
  verify_failed : int;
  faulted : int;
  crashed : string option;
}

type report = {
  trace : Trace.t;
  columns : column list;
  events_run : int;
  probes_run : int;
  divergences : divergence list;
  checked_ops : int;
  snapshots_checked : int;
  verify_ms : float;
  wall_ms : float;
}

let clean r =
  r.divergences = [] && List.for_all (fun c -> c.crashed = None) r.columns

(* One scheduler under examination. *)
type lane = {
  name : string;
  agent : Agent.t;
  emitted : Op.t list array;  (** what the scheduler emitted, per event *)
  history : Buffer.t;  (** '1' per applied event, '0' otherwise *)
  mutable col : column;  (** the lane's report column, kept as it runs *)
}

(* Record every accepted emission into [slot.(!cur)] — wrapped outside the
   saboteur, so the recording is what actually reached the TCAM. *)
let recorder ~slot ~cur (a : Algo.t) =
  let record r =
    (match r with Ok ops -> slot.(!cur) <- ops | Error _ -> ());
    r
  in
  {
    a with
    Algo.schedule_insert =
      (fun ~rule_id ~deps ~dependents ->
        record (a.Algo.schedule_insert ~rule_id ~deps ~dependents));
    schedule_delete =
      (fun ~rule_id -> record (a.Algo.schedule_delete ~rule_id));
    insert_batch = None;
  }

let fault_tolerant = function
  | Firmware.FR_O _ | Firmware.FR_SD _ | Firmware.FR_SB _ -> true
  | Firmware.Naive | Firmware.Ruletris -> false

let classify = function
  | Ok () -> Applied
  | Error e ->
      if String.starts_with ~prefix:"verify: " e then Verify_failed e
      else if String.starts_with ~prefix:"fault: " e then Faulted e
      else Rejected e

let store_image agent =
  List.sort compare
    (List.map (fun (r : Rule.t) -> (r.Rule.id, r.Rule.action)) (Agent.rules agent))

let winner_id = function None -> -1 | Some (r : Rule.t) -> r.Rule.id

(* -- the shared harness ----------------------------------------------- *)

(* Every mode logs into one accumulator, newest first. *)
let diverge log ?(event = -1) scheduler detail =
  log := { event; scheduler; detail } :: !log

let pp_divergences ppf = function
  | [] -> Format.fprintf ppf "  divergences: none@."
  | ds ->
      let n = List.length ds in
      Format.fprintf ppf "  divergences: %d@." n;
      List.iteri
        (fun i d ->
          if i < 10 then Format.fprintf ppf "    %a@." pp_divergence d)
        ds;
      if n > 10 then Format.fprintf ppf "    ... and %d more@." (n - 10)

(* One timed lane per standard scheduler, in firmware order. *)
let per_kind f =
  Measure.time_ms (fun () ->
      List.map
        (fun kind -> f kind (Firmware.algo_kind_name kind))
        (Firmware.standard_algos Fr_sched.Store.Bit_backend))

(* Cross-lane agreement: every lane's value must equal the first lane's. *)
let agree log ?event lanes detail =
  match lanes with
  | [] -> ()
  | (ref_name, ref_v) :: rest ->
      List.iter
        (fun (name, v) ->
          if v <> ref_v then diverge log ?event name (detail ref_name ref_v v))
        rest

(* A probe packet aimed at a randomly drawn pool rule. *)
let probe_packet pool rng =
  let r = pool.(Rng.int rng (Array.length pool)) in
  Header.packet_in rng r.Rule.field

(* The one lookup order — highest priority, ties to the smaller id, as in
   {!Agent.semantic_lookup} — applied to any list of candidates: a
   detached rule set, or the per-shard winners of a service. *)
let winner candidates =
  winner_id
    (List.fold_left
       (fun best (r : Rule.t) ->
         match best with
         | Some (b : Rule.t)
           when b.Rule.priority > r.Rule.priority
                || (b.Rule.priority = r.Rule.priority && b.Rule.id < r.Rule.id)
           -> best
         | _ -> Some r)
       None candidates)

let semantic_winner rules pkt =
  winner (List.filter (fun r -> Rule.matches_packet r pkt) rules)

let shards s = List.init (Service.shards s) (Service.shard s)
let agents s = List.map Shard.agent (shards s)

(* Cross-shard winner of [look] ({!Agent.lookup} or
   {!Agent.semantic_lookup}). *)
let union_winner look s pkt =
  winner (List.filter_map (fun a -> look a pkt) (agents s))

(* The union of every shard's installed table — placement-independent, so
   a service that diverted and rebalanced compares equal to one that never
   faulted as long as the *rules* agree. *)
let union_image s = List.sort compare (List.concat_map store_image (agents s))

let telemetry_sum s f =
  List.fold_left (fun acc sh -> acc + f (Shard.telemetry sh)) 0 (shards s)

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* A lane that logged since [since] leaves a replayable bundle of the
   mode's parameters at [capture/<mode>-<kind>]. *)
let capture_bundle log capture ~since ~scheduler ~trace ?journal ~mode ~at
    ?(mid_drain = false) ~batch ~shards ~fault_shard ?(slow_ms = 0.0)
    ?(dead_frac = 0.0) () =
  match capture with
  | Some cap when List.length !log > since ->
      let bundle =
        Bundle.write
          ~dir:(Filename.concat cap (mode ^ "-" ^ scheduler))
          {
            Bundle.mode;
            at;
            mid_drain;
            batch;
            shards;
            fault_shard;
            slow_ms;
            dead_frac;
          }
          ~trace ~journal
      in
      diverge log scheduler ("divergence bundle captured at " ^ bundle)
  | Some _ | None -> ()

(* A trace unpacked once per mode. *)
type input = {
  tr : Trace.t;
  pool : Rule.t array;
  events : Trace.event array;
  preload : Rule.t array;  (** what every lane starts from *)
}

let input tr =
  let pool = Trace.rules tr in
  {
    tr;
    pool;
    events = Array.of_list tr.Trace.events;
    preload = Array.sub pool 0 tr.Trace.initial;
  }

let service inp ~kind ?domains ~shards ?resil ?journal () =
  Service.of_rules ~kind ?domains ~shards ~capacity:inp.tr.Trace.capacity
    ?resil ?journal inp.preload

(* -- the installed-set invariant -------------------------------------- *)

module Ids = Set.Make (Int)

let ids rules = Ids.of_list (List.map (fun (r : Rule.t) -> r.Rule.id) rules)

(* No silent rule loss: between two observation points the installed id
   set may gain only ids an [Add] in the window names, and lose only ids
   a [Remove] in the window names. *)
let check_installed log ~event ~scheduler ~window before after =
  let named pick = Ids.of_list (List.filter_map pick window) in
  let unexplained verb op moved =
    Ids.iter
      (fun id ->
        diverge log ~event scheduler
          (Printf.sprintf "installed set %s rule %d with no %s naming it" verb
             id op))
      moved
  in
  unexplained "gained" "Add"
    (Ids.diff (Ids.diff after before)
       (named (function Agent.Add r -> Some r.Rule.id | _ -> None)));
  unexplained "lost" "Remove"
    (Ids.diff (Ids.diff before after)
       (named (function Agent.Remove { id } -> Some id | _ -> None)))

let installed s = ids (List.concat_map Agent.rules (agents s))

(* Flush [s] as an observation point.  Between two of them only submits
   happen, which queue; so the drain plan the flush starts from — every
   mod submitted since the last flush plus the ones it left queued — is
   the window, and retries requeue inside the flush itself. *)
let flush log ~scheduler ~event s =
  let before = installed s in
  let window = List.concat_map Shard.pending_mods (shards s) in
  ignore (Service.flush s);
  check_installed log ~event ~scheduler ~window before (installed s)

(* Submit events [from, upto) to [s], flushing every [batch] events and
   calling [observe i] after each flush ([i] the window's last event).
   With [tail], a partial last window is flushed too and observed as
   [upto].  Every flush is an observation point of the invariant. *)
let drive log ~scheduler inp ~batch ?(tail = true) ?(observe = ignore)
    ?(from = 0) upto s =
  let step i =
    flush log ~scheduler ~event:i s;
    observe i
  in
  for i = from to upto - 1 do
    Service.submit s (Trace.flow_mod inp.pool inp.events.(i));
    if (i + 1) mod batch = 0 then step i
  done;
  if tail && Service.pending s > 0 then step upto

(* [n] probe packets from [rng]: [look_a] and [look_b] must name the same
   winner on each. *)
let probe_agree log inp ~scheduler rng n look_a look_b detail =
  for _ = 1 to n do
    let pkt = probe_packet inp.pool rng in
    let wa = look_a pkt in
    let wb = look_b pkt in
    if wa <> wb then diverge log scheduler (detail wa wb)
  done

(* Hold [a] to [b]: the union tables first, then [probes] lookups drawn
   from a stream seeded with [seed]. *)
let compare_services log inp ~scheduler ~probes ~seed ~store ~lookup a b =
  let img_a = union_image a and img_b = union_image b in
  if img_a <> img_b then
    diverge log scheduler (store (List.length img_a) (List.length img_b));
  probe_agree log inp ~scheduler (Rng.create ~seed) probes
    (union_winner Agent.lookup a) (union_winner Agent.lookup b) lookup

(* The argument checks the twin modes share. *)
let check_twin_args who ~batch ~shards ~fault_shard ~needs =
  let bad detail = invalid_arg (Printf.sprintf "Oracle.%s: %s" who detail) in
  if batch <= 0 then bad "batch must be positive";
  if shards < 2 then bad (needs ^ " needs at least 2 shards");
  if fault_shard < 0 || fault_shard >= shards then
    bad "fault_shard out of range"

(* The faulted-versus-twin storey, for one scheduler kind: setup (a
   failover-enabled service on [resil], breaker cooldown 2) → fault
   schedule → drive ([observe] runs after every flush of the faulted
   service) → heal and flush until converged → gates ([gate], then
   [unconverged] names a heal that ran out of flushes) → compare with a
   twin that never faulted → bundle capture.  Returns the telemetry sum
   over the healed service's shards and its heal-flush count. *)
let twin_lane log inp ~kind ~scheduler ?domains ~shards ~resil ~batch
    ~fault_shard ~fault ?(observe = fun _ _ -> ()) ?(settled = fun _ -> true)
    ?(gate = ignore) ~unconverged ~probes ~seed ~lookup ~capture ~mode ?slow_ms
    ?dead_frac () =
  let since = List.length !log in
  let resil = { resil with Service.failover = true; breaker_cooldown = 2 } in
  let run ~faulted =
    let s = service inp ~kind ?domains ~shards ~resil () in
    if faulted then Service.set_fault s ~shard:fault_shard (Some fault);
    drive log ~scheduler inp ~batch
      ~observe:(if faulted then observe s else ignore)
      (Array.length inp.events) s;
    s
  in
  let faulted = run ~faulted:true in
  let twin = run ~faulted:false in
  Service.set_fault faulted ~shard:fault_shard None;
  let converged () =
    Service.diverted_count faulted = 0
    && Service.pending faulted = 0
    && settled faulted
    && List.for_all
         (fun i -> Service.breaker_state faulted i = Breaker.Closed)
         (List.init shards Fun.id)
  in
  let heal_flushes = ref 0 in
  while (not (converged ())) && !heal_flushes < 100 do
    flush log ~scheduler ~event:(-1) faulted;
    incr heal_flushes
  done;
  let shed = telemetry_sum faulted Telemetry.shed in
  if shed > 0 then
    diverge log scheduler
      (Printf.sprintf "graceful degradation violated: %d submits shed" shed);
  gate faulted;
  if not (converged ()) then
    diverge log scheduler (unconverged faulted !heal_flushes);
  compare_services log inp ~scheduler ~probes ~seed
    ~store:
      (Printf.sprintf
         "final store differs from the never-faulted twin (%d vs %d rules)")
    ~lookup faulted twin;
  capture_bundle log capture ~since ~scheduler ~trace:inp.tr ~mode
    ~at:(Array.length inp.events) ~batch ~shards ~fault_shard ?slow_ms
    ?dead_frac ();
  (telemetry_sum faulted, !heal_flushes)

(* -- single-agent differential mode ----------------------------------- *)

let run ?(config = default_config) (trace : Trace.t) =
  let inp = input trace in
  let pool = inp.pool in
  let n_events = Array.length inp.events in
  let cur = ref 0 in
  let divergences = ref [] in
  let make_lane kind name =
    let emitted = Array.make (max n_events 1) ([] : Op.t list) in
    let scheduler ~graph ~tcam =
      let base = Firmware.make_scheduler kind ~graph ~tcam in
      let base =
        match List.assoc_opt name config.sabotage with
        | Some mode -> Sabotage.wrap mode base
        | None -> base
      in
      recorder ~slot:emitted ~cur base
    in
    let agent =
      Agent.of_rules ~kind ~scheduler ~verify:config.verify
        ~capacity:trace.Trace.capacity inp.preload
    in
    (if config.fault_prob > 0. && fault_tolerant kind then
       let plan =
         Fault.create ~fail_prob:config.fault_prob
           ~max_failures:config.max_failures
           ~seed:(trace.Trace.seed lxor config.fault_seed lxor Hashtbl.hash name)
           ()
       in
       Agent.set_fault agent (Some plan));
    {
      name;
      agent;
      emitted;
      history = Buffer.create (n_events + 1);
      col =
        {
          scheduler = name;
          applied = 0;
          rejected = 0;
          verify_failed = 0;
          faulted = 0;
          crashed = None;
        };
    }
  in
  let lanes, setup_ms = per_kind make_lane in
  let live f =
    List.iter (fun lane -> if lane.col.crashed = None then f lane) lanes
  in
  (* probe stream: second split of the trace seed (the first is the event
     stream the generator consumed) *)
  let root = Rng.create ~seed:trace.Trace.seed in
  let _event_stream = Rng.split root in
  let probe_rng = Rng.split root in
  let probes_run = ref 0 in
  let snapshots_checked = ref 0 in
  let body () =
    Array.iteri
      (fun idx ev ->
        cur := idx;
        let fm = Trace.flow_mod pool ev in
        (* 1. drive the event through every (live) lane, capturing every
           snapshot the lane publishes mid-cascade (one image per
           committed hardware op / payload bind) together with the
           pre-event rule set, for the snapshot-consistency step below *)
        let snap_work = ref [] in
        List.iter
          (fun lane ->
            let c = lane.col in
            match c.crashed with
            | Some _ -> Buffer.add_char lane.history 'x'
            | None -> (
                let pre_rules = Agent.rules lane.agent in
                let captured = ref [] in
                Agent.set_publish_observer lane.agent
                  (Some (fun img -> captured := img :: !captured));
                match classify (Agent.apply lane.agent fm) with
                | exception e ->
                    Agent.set_publish_observer lane.agent None;
                    lane.col <-
                      { c with crashed = Some (Printexc.to_string e) };
                    Buffer.add_char lane.history 'x';
                    diverge divergences ~event:idx lane.name
                      ("agent crashed: " ^ Printexc.to_string e)
                | outcome ->
                    Agent.set_publish_observer lane.agent None;
                    snap_work :=
                      (lane, pre_rules, List.rev !captured) :: !snap_work;
                    check_installed divergences ~event:idx ~scheduler:lane.name
                      ~window:[ fm ] (ids pre_rules)
                      (ids (Agent.rules lane.agent));
                    Buffer.add_char lane.history
                      (match outcome with
                      | Applied ->
                          lane.col <- { c with applied = c.applied + 1 };
                          '1'
                      | Rejected _ ->
                          lane.col <- { c with rejected = c.rejected + 1 };
                          '0'
                      | Verify_failed e ->
                          lane.col <-
                            { c with verify_failed = c.verify_failed + 1 };
                          diverge divergences ~event:idx lane.name e;
                          '0'
                      | Faulted _ -> (
                          lane.col <- { c with faulted = c.faulted + 1 };
                          (* A faulted sequence can still change the store:
                             a Remove whose erase landed before the fault
                             completes the logical removal.  The history
                             tracks the store *effect* (that is what the
                             grouping compares), so probe the store rather
                             than trusting the verdict. *)
                          match ev with
                          | Trace.Remove i
                            when Agent.rule lane.agent pool.(i).Rule.id = None
                            -> '1'
                          | _ -> '0'))))
          lanes;
        (* 2. dependency invariant on every intermediate state *)
        live (fun lane ->
            match
              Tcam.check_dag_order (Agent.tcam lane.agent)
                (Agent.graph lane.agent)
            with
            | Ok () -> ()
            | Error e ->
                diverge divergences ~event:idx lane.name
                  ("dependency invariant violated: " ^ e));
        (* 3. semantic lookup equivalence: TCAM winner vs linear scan.
           The probe stream advances regardless of lane health, so equal
           traces probe equal packets.  The packets are drawn once per
           event and shared with the snapshot step below. *)
        let pkts =
          Array.init config.probes (fun _ -> probe_packet pool probe_rng)
        in
        Array.iter
          (fun pkt ->
            incr probes_run;
            live (fun lane ->
                let hw = winner_id (Agent.lookup lane.agent pkt) in
                let sem = winner_id (Agent.semantic_lookup lane.agent pkt) in
                if hw <> sem then
                  diverge divergences ~event:idx lane.name
                    (Printf.sprintf
                       "lookup divergence: TCAM matched rule %d, linear scan \
                        says %d"
                       hw sem)))
          pkts;
        (* 3b. snapshot consistency: every image published mid-cascade
           must answer the probe packets exactly as the semantic table
           either before or after the flow-mod — as a whole vector, so a
           half-applied mix of the two states can never hide.  A
           [Set_action] whose entry sits on a dead row legitimately
           relocates through Remove + Add (see Agent), so the transient
           rule-absent state is an accepted third vector for that event
           kind only. *)
        if config.probes > 0 then
          List.iter
            (fun (lane, pre_rules, images) ->
              if lane.col.crashed = None && images <> [] then begin
                let vec rules = Array.map (semantic_winner rules) pkts in
                let pre_v = vec pre_rules in
                let post_v = vec (Agent.rules lane.agent) in
                let relocate_v =
                  match fm with
                  | Agent.Set_action { id; _ } ->
                      [
                        vec
                          (List.filter
                             (fun (r : Rule.t) -> r.Rule.id <> id)
                             pre_rules);
                      ]
                  | Agent.Add _ | Agent.Remove _ -> []
                in
                List.iter
                  (fun img ->
                    incr snapshots_checked;
                    let got =
                      Array.map
                        (fun pkt -> winner_id (Fr_tcam.Image.lookup img pkt))
                        pkts
                    in
                    if not (List.mem got (pre_v :: post_v :: relocate_v))
                    then begin
                      (* got <> pre_v, so a differing probe exists; prefer
                         one that matches neither state (a true stray)
                         over one that merely exposes a mix. *)
                      let first p =
                        List.find_opt p (List.init (Array.length got) Fun.id)
                      in
                      let bad =
                        match
                          first (fun i ->
                              got.(i) <> pre_v.(i) && got.(i) <> post_v.(i))
                        with
                        | Some i -> i
                        | None ->
                            Option.value ~default:0
                              (first (fun i -> got.(i) <> pre_v.(i)))
                      in
                      diverge divergences ~event:idx lane.name
                        (Printf.sprintf
                           "snapshot divergence at epoch %d: image matched \
                            rule %d on probe %d, semantic table says %d \
                            (pre) / %d (post)"
                           (Fr_tcam.Image.epoch img) got.(bad) bad pre_v.(bad)
                           post_v.(bad))
                    end)
                  images
              end)
            !snap_work;
        (* 4. lanes with identical accept histories must hold identical
           stores *)
        let groups = Hashtbl.create 8 in
        live (fun lane ->
            let key = Buffer.contents lane.history in
            Hashtbl.replace groups key
              ((lane.name, store_image lane.agent)
              :: (try Hashtbl.find groups key with Not_found -> [])));
        Hashtbl.iter
          (fun _ members ->
            agree divergences ~event:idx members (fun ref_name ref_img img ->
                Printf.sprintf
                  "store differs from %s despite identical accept history (%d \
                   vs %d rules)"
                  ref_name (List.length img) (List.length ref_img)))
          groups)
      inp.events;
    (* 5. determinism: fresh emissions must reproduce embedded recordings *)
    List.iter
      (fun (name, recorded) ->
        match List.find_opt (fun l -> l.name = name) lanes with
        | Some lane when lane.col.crashed = None ->
            Array.iteri
              (fun idx ops ->
                if
                  idx < n_events
                  && not (List.equal Op.equal ops lane.emitted.(idx))
                then
                  diverge divergences ~event:idx name
                    (Format.asprintf
                       "nondeterministic emission: recorded %a, replayed %a"
                       Op.pp_sequence ops Op.pp_sequence lane.emitted.(idx)))
              recorded
        | Some _ | None -> ())
      trace.Trace.recordings
  in
  let (), body_ms = Measure.time_ms body in
  let checked_ops =
    List.fold_left (fun acc l -> acc + Agent.verified_ops l.agent) 0 lanes
  in
  let verify_ms =
    List.fold_left (fun acc l -> acc +. Agent.verify_ms_total l.agent) 0. lanes
  in
  let trace =
    if config.record then
      {
        trace with
        Trace.recordings =
          List.map (fun l -> (l.name, Array.sub l.emitted 0 n_events)) lanes;
      }
    else trace
  in
  {
    trace;
    columns = List.map (fun l -> l.col) lanes;
    events_run = n_events;
    probes_run = !probes_run;
    divergences = List.rev !divergences;
    checked_ops;
    snapshots_checked = !snapshots_checked;
    verify_ms;
    wall_ms = setup_ms +. body_ms;
  }

let pp_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.trace;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-9s %4d applied, %3d rejected%s%s%s@." c.scheduler
        c.applied c.rejected
        (if c.verify_failed > 0 then
           Printf.sprintf ", %d VERIFY-FAILED" c.verify_failed
         else "")
        (if c.faulted > 0 then Printf.sprintf ", %d faulted" c.faulted else "")
        (match c.crashed with
        | Some e -> Printf.sprintf ", CRASHED (%s)" e
        | None -> ""))
    r.columns;
  Format.fprintf ppf
    "  %d probes/agent; %d snapshots checked; %d ops checked in %.2f ms%s@."
    r.probes_run r.snapshots_checked r.checked_ops r.verify_ms
    (if r.verify_ms > 0. then
       Printf.sprintf " (%.0f checked-ops/s)"
         (float_of_int r.checked_ops /. (r.verify_ms /. 1000.))
     else "");
  pp_divergences ppf r.divergences

(* -- crash-recovery differential mode -------------------------------- *)

type crash_column = {
  crash_scheduler : string;
  committed : int;
  suffix : int;
  replayed_drains : int;
  requeued : int;
  recovered_rules : int;
}

type crash_report = {
  crash_trace : Trace.t;
  crash_at : int;
  mid_drain : bool;
  crash_columns : crash_column list;
  crash_divergences : divergence list;
  crash_wall_ms : float;
}

let crash_clean r = r.crash_divergences = []

let run_crash ?(probes = 8) ?(batch = 4) ?(mid_drain = false) ?at ?domains
    ?capture (trace : Trace.t) =
  if batch <= 0 then invalid_arg "Oracle.run_crash: batch must be positive";
  let inp = input trace in
  let n_events = Array.length inp.events in
  let at = match at with None -> n_events | Some a -> max 0 (min a n_events) in
  (* events covered by the flushes that completed before the crash *)
  let committed = at - (at mod batch) in
  let divergences = ref [] in
  let run_kind kind name =
    (* The spec for what recovery must rebuild: a journal-free service of
       the same shape driven over a prefix with the same flush cadence —
       first the committed prefix, then on to [at].  Replay determinism
       (dirty drains checkpoint, clean ones re-drain identically) is
       exactly the claim under test. *)
    let reference = service inp ~kind ?domains ~shards:1 () in
    let compare ~stage recovered ~from upto =
      drive divergences ~scheduler:name inp ~batch ~from upto reference;
      compare_services divergences inp ~scheduler:name ~probes
        ~seed:(trace.Trace.seed lxor 0x5eed)
        ~store:
          (Printf.sprintf
             "%s: store differs from committed-prefix replay (%d vs %d rules)"
             stage)
        ~lookup:
          (Printf.sprintf
             "%s: lookup divergence (recovered matched %d, reference %d)" stage)
        recovered reference
    in
    let since = List.length !divergences in
    let dir = Journal.fresh_dir ~prefix:"fr-conform-crash" in
    let journaled = service inp ~kind ?domains ~shards:1 ~journal:dir () in
    drive divergences ~scheduler:name inp ~batch ~tail:false at journaled;
    Service.simulate_crash ~mid_drain journaled;
    let replayed_drains, requeued, recovered_rules =
      match Service.recover ?domains ~journal:dir () with
      | Error e ->
          diverge divergences name ("recovery failed: " ^ e);
          (0, 0, 0)
      | Ok r ->
          List.iter
            (fun w -> diverge divergences name ("recovery warning: " ^ w))
            r.Service.warnings;
          let recovered = r.Service.service in
          (match
             Agent.verify_consistent (Shard.agent (Service.shard recovered 0))
           with
          | Ok () -> ()
          | Error e ->
              diverge divergences name ("recovered agent inconsistent: " ^ e));
          (* installed state of the recovered service == committed prefix *)
          compare ~stage:"post-recovery" recovered ~from:0 committed;
          (* flushing the requeued suffix == having run the whole prefix *)
          if Service.pending recovered > 0 then
            flush divergences ~scheduler:name ~event:(-1) recovered;
          compare ~stage:"post-recovery flush" recovered ~from:committed at;
          ( r.Service.replayed_drains,
            r.Service.requeued,
            Service.rule_count recovered )
    in
    (* Capture must beat the cleanup below: the journal is the evidence. *)
    capture_bundle divergences capture ~since ~scheduler:name ~trace
      ~journal:dir ~mode:"crash" ~at ~mid_drain ~batch ~shards:1 ~fault_shard:0
      ();
    rm_tree dir;
    {
      crash_scheduler = name;
      committed;
      suffix = at - committed;
      replayed_drains;
      requeued;
      recovered_rules;
    }
  in
  let crash_columns, crash_wall_ms = per_kind run_kind in
  {
    crash_trace = trace;
    crash_at = at;
    mid_drain;
    crash_columns;
    crash_divergences = List.rev !divergences;
    crash_wall_ms;
  }

let pp_crash_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.crash_trace;
  Format.fprintf ppf "  crash after %d events%s@." r.crash_at
    (if r.mid_drain then " (mid-drain: begin markers on disk, no commit)"
     else "");
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-9s committed %d + suffix %d; replayed %d drains, requeued %d, \
         %d rules recovered@."
        c.crash_scheduler c.committed c.suffix c.replayed_drains c.requeued
        c.recovered_rules)
    r.crash_columns;
  pp_divergences ppf r.crash_divergences

(* -- failover differential mode --------------------------------------- *)

type failover_column = {
  failover_scheduler : string;
  fo_applied : int;
  fo_failed : int;
  fo_shed : int;
  fo_diverted : int;
  fo_rebalanced : int;
  heal_flushes : int;
}

type failover_report = {
  failover_trace : Trace.t;
  fo_shards : int;
  fault_shard : int;
  fo_slow_ms : float;
  failover_columns : failover_column list;
  failover_divergences : divergence list;
  failover_wall_ms : float;
}

let failover_clean r = r.failover_divergences = []

let run_failover ?(probes = 8) ?(batch = 4) ?(shards = 3) ?(fault_shard = 0)
    ?(slow_ms = 8.0) ?domains ?capture (trace : Trace.t) =
  check_twin_args "run_failover" ~batch ~shards ~fault_shard ~needs:"failover";
  if slow_ms <= 0.0 then
    invalid_arg "Oracle.run_failover: slow_ms must be positive";
  let inp = input trace in
  let divergences = ref [] in
  (* A slow threshold between the healthy per-op cost (~0.6 ms) and the
     faulted one (base + slow_ms) — healthy shards never trip it, the
     sick one always does.  After the heal, the cooldown expires, the
     half-open probe closes the breaker, and the rebalance pass drains the
     overlay home in bounded batches. *)
  let resil =
    {
      Service.default_resil with
      Service.slow_drain_ms = 2.0;
      breaker_slow_threshold = 2;
    }
  in
  let run_kind kind name =
    let gate s =
      let failed = telemetry_sum s Telemetry.failed in
      if failed > 0 then
        diverge divergences name
          (Printf.sprintf "%d ops failed under a latency-only fault" failed);
      if telemetry_sum s Telemetry.diverted = 0 then
        diverge divergences name
          "vacuous run: the latency fault never diverted any id"
    in
    let sum, heal_flushes =
      twin_lane divergences inp ~kind ~scheduler:name ?domains ~shards ~resil
        ~batch ~fault_shard
        ~fault:(Fault.create ~slow_ms ~seed:(trace.Trace.seed lxor 0xfa11) ())
        ~gate
        ~unconverged:(fun s ->
          Printf.sprintf
            "failover did not converge: %d ids still diverted after %d heal \
             flushes"
            (Service.diverted_count s))
        ~probes ~seed:(trace.Trace.seed lxor 0xf10e)
        ~lookup:
          (Printf.sprintf
             "lookup divergence under failover (healed matched %d, twin %d)")
        ~capture ~mode:"failover" ~slow_ms ()
    in
    {
      failover_scheduler = name;
      fo_applied = sum Telemetry.applied;
      fo_failed = sum Telemetry.failed;
      fo_shed = sum Telemetry.shed;
      fo_diverted = sum Telemetry.diverted;
      fo_rebalanced = sum Telemetry.rebalanced;
      heal_flushes;
    }
  in
  let failover_columns, failover_wall_ms = per_kind run_kind in
  {
    failover_trace = trace;
    fo_shards = shards;
    fault_shard;
    fo_slow_ms = slow_ms;
    failover_columns;
    failover_divergences = List.rev !divergences;
    failover_wall_ms;
  }

let pp_failover_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.failover_trace;
  Format.fprintf ppf
    "  failover: %d shards, persistent %g ms/op latency fault on shard %d@."
    r.fo_shards r.fo_slow_ms r.fault_shard;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-9s %4d applied, %d failed, %d shed; %d diverted, %d rebalanced \
         home in %d heal flushes@."
        c.failover_scheduler c.fo_applied c.fo_failed c.fo_shed c.fo_diverted
        c.fo_rebalanced c.heal_flushes)
    r.failover_columns;
  pp_divergences ppf r.failover_divergences

(* -- degraded-hardware differential mode ------------------------------ *)

type degraded_column = {
  degraded_scheduler : string;
  dg_applied : int;
  dg_failed : int;
  dg_shed : int;
  dg_diverted : int;
  dg_degraded_diverted : int;
  dg_dead_max : int;
  dg_recovered : int;
  dg_heal_flushes : int;
}

type degraded_report = {
  degraded_trace : Trace.t;
  dg_shards : int;
  dg_fault_shard : int;
  dg_dead_frac : float;
  dg_seeded_dead : int;
  degraded_columns : degraded_column list;
  degraded_divergences : divergence list;
  degraded_wall_ms : float;
}

let degraded_clean r = r.degraded_divergences = []

let run_degraded ?(probes = 8) ?(batch = 4) ?(shards = 3) ?(fault_shard = 0)
    ?(dead_frac = 0.10) ?domains ?capture (trace : Trace.t) =
  check_twin_args "run_degraded" ~batch ~shards ~fault_shard
    ~needs:"partial failover";
  if dead_frac <= 0.0 || dead_frac >= 1.0 then
    invalid_arg "Oracle.run_degraded: dead_frac must be in (0, 1)";
  let inp = input trace in
  let divergences = ref [] in
  (* The stuck bank: [dead_frac] of the sick shard's rows, drawn once per
     trace so every scheduler (and every domain count) faces the same
     holes. *)
  let n_dead =
    max 1 (int_of_float (dead_frac *. float_of_int trace.Trace.capacity))
  in
  let stuck =
    let rng = Rng.create ~seed:(trace.Trace.seed lxor 0xdead) in
    let seen = Hashtbl.create n_dead in
    let rec draw acc k =
      if k = 0 then acc
      else
        let a = Rng.int rng trace.Trace.capacity in
        if Hashtbl.mem seen a then draw acc k
        else begin
          Hashtbl.replace seen a ();
          draw (a :: acc) (k - 1)
        end
    in
    draw [] n_dead
  in
  (* Stuck writes are damage, so the supervisor must absorb the discovery:
     a failed op condemns its target row and the retry reschedules around
     it.  A generous retry budget lets a drain end damage-free even when
     successive cascades keep probing fresh holes, so the breaker never
     mistakes the sick shard for a dead one — it is not dead, merely
     smaller.  After the heal, the probe drill revives the condemned rows,
     room returns, and the rebalance pass drains any diverted ids home
     through the epoch fence. *)
  let resil = { Service.default_resil with Service.retry_budget = 8 } in
  let run_kind kind name =
    let dead_max = ref 0 in
    let probe_rng = Rng.create ~seed:(trace.Trace.seed lxor 0x9b0e) in
    (* Probe point: the hardware answer must match the semantic scan at
       every flush boundary, holes or no holes. *)
    let observe s i =
      dead_max := max !dead_max (Service.dead_rows s);
      probe_agree divergences inp ~scheduler:name probe_rng 2
        (union_winner Agent.lookup s)
        (union_winner Agent.semantic_lookup s)
        (Printf.sprintf
           "lookup/semantic divergence at event %d under dead rows (hw %d, \
            spec %d)"
           i)
    in
    (* [Telemetry.failed] is NOT a gate: it counts the per-drain transient
       failures that discover the holes before the retry heals them — the
       price of learning, not damage.  Whether the stuck bank was ever
       touched ([dg_dead_max = 0]) is workload-dependent, so it is
       reported in the column rather than gated here — certification
       entry points assert [dg_dead_max > 0] on traces dense enough to
       guarantee contact. *)
    let sum, heal_flushes =
      twin_lane divergences inp ~kind ~scheduler:name ?domains ~shards ~resil
        ~batch ~fault_shard
        ~fault:(Fault.create ~stuck ~seed:(trace.Trace.seed lxor 0xdf) ())
        ~observe
        ~settled:(fun s -> Service.dead_rows s = 0)
        ~unconverged:(fun s ->
          Printf.sprintf
            "degraded run did not converge: %d diverted, %d pending, %d dead \
             rows after %d heal flushes"
            (Service.diverted_count s) (Service.pending s)
            (Service.dead_rows s))
        ~probes ~seed:(trace.Trace.seed lxor 0xd1f)
        ~lookup:
          (Printf.sprintf
             "lookup divergence after heal (healed matched %d, twin %d)")
        ~capture ~mode:"degraded" ~dead_frac ()
    in
    {
      degraded_scheduler = name;
      dg_applied = sum Telemetry.applied;
      dg_failed = sum Telemetry.failed;
      dg_shed = sum Telemetry.shed;
      dg_diverted = sum Telemetry.diverted;
      dg_degraded_diverted = sum Telemetry.degraded_diverted;
      dg_dead_max = !dead_max;
      dg_recovered = sum Telemetry.rows_recovered;
      dg_heal_flushes = heal_flushes;
    }
  in
  let degraded_columns, degraded_wall_ms = per_kind run_kind in
  {
    degraded_trace = trace;
    dg_shards = shards;
    dg_fault_shard = fault_shard;
    dg_dead_frac = dead_frac;
    dg_seeded_dead = n_dead;
    degraded_columns;
    degraded_divergences = List.rev !divergences;
    degraded_wall_ms;
  }

let pp_degraded_report ppf r =
  Format.fprintf ppf "%a@." Trace.pp r.degraded_trace;
  Format.fprintf ppf
    "  degraded: %d shards, %.0f%% stuck bank (%d rows) on shard %d@."
    r.dg_shards
    (100.0 *. r.dg_dead_frac)
    r.dg_seeded_dead r.dg_fault_shard;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-9s %4d applied, %d transient-failed, %d shed; %d diverted (%d \
         degraded), %d dead max, %d recovered, healed in %d flushes@."
        c.degraded_scheduler c.dg_applied c.dg_failed c.dg_shed c.dg_diverted
        c.dg_degraded_diverted c.dg_dead_max c.dg_recovered c.dg_heal_flushes)
    r.degraded_columns;
  pp_divergences ppf r.degraded_divergences

(* ------------------------------------------------------------------ *)
(* Network rollout differential mode.                                  *)

module Net_fleet = Fr_net.Fleet
module Net_plan = Fr_net.Plan
module Net_check = Fr_net.Check
module Net_scenario = Fr_net.Scenario

type net_column = {
  net_scheduler : string;
  net_rounds : int;
  net_applied : int;
  net_failed : int;
  net_probes : int;
}

type net_report = {
  net_shape : string;
  net_nodes : int;
  net_flows : int;
  net_rounds_planned : int;
  net_columns : net_column list;
  net_divergences : divergence list;
  net_wall_ms : float;
}

let net_clean r = r.net_divergences = []

(* One fleet lane, shared by both net modes: build the fleet on the old
   policy, check consistency at every instant [execute] reaches, then
   hold the settled fleet to a twin built directly from the policy and
   stamps [verdict] expects ([Error] is a verdict that is itself a
   divergence).  Every detail passes through [tag].  Returns the
   execution report, the probe-point count and the lane's name with, when
   it settled, its per-node tables. *)
let net_lane log ~kind ~scheduler ~shards ~capacity ?domains ?journal ~samples
    ~tag (sc : Net_scenario.t) plan ~execute ~verdict =
  let fleet =
    Net_fleet.of_policy ~kind ~shards ~capacity ?domains ?journal sc.topo
      sc.old_policy
  in
  (* One PRNG per scheduler lane, same seed for all lanes: the probe
     order is deterministic, so every lane traces the same packets and
     any disagreement is the scheduler's. *)
  let rng = Rng.create ~seed:11 in
  let probes = ref 0 in
  let check f ~event ~where =
    incr probes;
    List.iter
      (fun d -> diverge log ~event scheduler (tag d))
      (Net_check.consistent ~samples ~rng plan ~stamps:(Net_fleet.stamp f)
         ~lookup:(Net_fleet.lookup f) ~where)
  in
  check fleet ~event:0 ~where:"initial";
  let report =
    execute ~probe:(fun f ~round ~where -> check f ~event:round ~where) fleet
  in
  check fleet ~event:(-1) ~where:"final";
  let tables =
    match verdict report with
    | Error (event, detail) ->
        diverge log ~event scheduler (tag detail);
        None
    | Ok (policy, stamps, (tables_differ, stamps_differ)) ->
        let twin =
          Net_fleet.of_policy ~kind ~shards ~capacity ?domains sc.topo policy
            ~version_of:(fun fl ->
              Option.value ~default:0
                (List.assoc_opt fl.Fr_net.Policy.flow_id stamps))
        in
        let tables f =
          List.init (Fr_net.Topo.nodes sc.topo) (Net_fleet.rules f)
        in
        let image = tables fleet in
        if image <> tables twin then diverge log scheduler (tag tables_differ);
        if Net_fleet.stamps fleet <> stamps then
          diverge log scheduler (tag stamps_differ);
        Some image
  in
  (report, !probes, (scheduler, tables))

(* Cross-lane: every lane that settled must land on identical tables. *)
let same_tables log ~tag lanes =
  agree log
    (List.filter_map (fun (name, t) -> Option.map (fun t -> (name, t)) t) lanes)
    (fun ref_name _ _ ->
      tag (Printf.sprintf "final tables differ from %s's" ref_name))

let run_net ?(batch = 4) ?(samples = 2) ?(shards = 2) ?(capacity = 64) ?domains
    (sc : Net_scenario.t) =
  let plan =
    match Net_scenario.plan ~batch sc with
    | Ok p -> p
    | Error e -> invalid_arg ("Oracle.run_net: " ^ e)
  in
  let divergences = ref [] in
  let lanes, net_wall_ms =
    per_kind (fun kind name ->
        let execute ~probe fleet =
          let report = Net_fleet.execute ~probe fleet plan in
          if not report.Net_fleet.completed then
            diverge divergences name "rollout did not complete";
          if report.Net_fleet.failed > 0 then
            diverge divergences name
              (Printf.sprintf "%d flow-mods failed during the rollout"
                 report.Net_fleet.failed);
          report
        in
        let report, probes, named_tables =
          net_lane divergences ~kind ~scheduler:name ~shards ~capacity ?domains
            ~samples ~tag:Fun.id sc plan ~execute
            ~verdict:(fun _ ->
              Ok
                ( sc.new_policy,
                  Net_plan.stamps_after plan,
                  ( "final tables differ from a fresh fleet on the new policy",
                    "final stamps differ from the plan's" ) ))
        in
        ( {
            net_scheduler = name;
            net_rounds = report.Net_fleet.rounds_run;
            net_applied = report.Net_fleet.applied;
            net_failed = report.Net_fleet.failed;
            net_probes = probes;
          },
          named_tables ))
  in
  same_tables divergences ~tag:Fun.id (List.map snd lanes);
  {
    net_shape = Fr_net.Topo.shape_name sc.topo;
    net_nodes = Fr_net.Topo.nodes sc.topo;
    net_flows = List.length sc.old_policy;
    net_rounds_planned = Net_plan.num_rounds plan;
    net_columns = List.map fst lanes;
    net_divergences = List.rev !divergences;
    net_wall_ms;
  }

let pp_net_report ppf r =
  Format.fprintf ppf
    "net oracle: %s topology, %d nodes, %d flows, %d rounds planned@."
    r.net_shape r.net_nodes r.net_flows r.net_rounds_planned;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-9s %d rounds, %4d applied, %d failed, %d probe points@."
        c.net_scheduler c.net_rounds c.net_applied c.net_failed c.net_probes)
    r.net_columns;
  pp_divergences ppf r.net_divergences

(* ------------------------------------------------------------------ *)
(* Network chaos certification mode.                                   *)

let outcome_name (o : Net_fleet.outcome) =
  match o with
  | Net_fleet.Completed -> "completed"
  | Net_fleet.Crashed -> "crashed"
  | Net_fleet.Held k -> Printf.sprintf "held@%d" k
  | Net_fleet.Aborted { at_round; rolled_back } ->
      Printf.sprintf "aborted@%d-%d" at_round rolled_back

type chaos_case = {
  case_index : int;
  case_seed : int;
  case_shape : string;
  case_nodes : int;
  case_flows : int;
  case_rounds : int;
  case_faults : string list;
  case_hold : string;
  case_abort_at : int option;
  case_outcome : string;
  case_retried : int;
  case_quarantines : int;
  case_recovered : int;
  case_probes : int;
}

type chaos_report = {
  chaos_seed : int;
  chaos_cases : chaos_case list;
  chaos_outcomes : (string * int) list;
  chaos_divergences : divergence list;
  chaos_wall_ms : float;
}

let chaos_clean r = r.chaos_divergences = []

let chaos_fingerprint r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s %d %d %d [%s] %s %s %s %d %d %d %d\n"
           c.case_index c.case_seed c.case_shape c.case_nodes c.case_flows
           c.case_rounds
           (String.concat "," c.case_faults)
           c.case_hold
           (match c.case_abort_at with
           | None -> "-"
           | Some k -> string_of_int k)
           c.case_outcome c.case_retried c.case_quarantines c.case_recovered
           c.case_probes))
    r.chaos_cases;
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "div %d %s %s\n" d.event d.scheduler d.detail))
    r.chaos_divergences;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The chaos supervision profile.  The deadline sits far above any
   healthy round (a batch-4 round is tens of modelled ms at
   0.6 ms/op) and far below every injected ack penalty (200+ ms), so
   timeouts fire exactly on scheduled slow faults regardless of which
   scheduler's movement count is under it. *)
let chaos_supervision ~hold ~hold_budget ~sup_seed =
  {
    Net_fleet.default_supervision with
    deadline_ms = 50.0;
    retries = 1;
    breaker_threshold = 2;
    breaker_slow_threshold = 2;
    breaker_cooldown = 1;
    hold;
    hold_budget;
    sup_seed;
  }

let run_net_chaos ?(cases = 100) ?(samples = 2) ?(shards = 2) ?(capacity = 64)
    ?domains ~seed () =
  if cases < 1 then invalid_arg "Oracle.run_net_chaos: cases must be positive";
  let divergences = ref [] in
  let run_case i =
    let case_seed = seed + (7919 * i) in
    let tag = Printf.sprintf "case %d (seed %d): %s" i case_seed in
    let rng = Rng.create ~seed:case_seed in
    let shape =
      match Rng.int rng 3 with
      | 0 -> Fr_net.Topo.Line
      | 1 -> Fr_net.Topo.Ring
      | _ -> Fr_net.Topo.Tree
    in
    let nodes = 3 + Rng.int rng 4 in
    let topo = Fr_net.Topo.make shape nodes in
    let flows = 4 + Rng.int rng 3 in
    let sc = Net_scenario.make ~flows ~seed:case_seed topo in
    let plan =
      match Net_scenario.plan ~batch:4 sc with
      | Ok p -> p
      | Error e ->
          invalid_arg (Printf.sprintf "Oracle.run_net_chaos: seed %d: %s"
             case_seed e)
    in
    let rounds = Net_plan.num_rounds plan in
    let faults =
      Net_scenario.chaos_faults ~shards ~capacity ~seed:case_seed ~rounds
        ~nodes ()
    in
    let hold, hold_budget =
      if i mod 2 = 0 then (Net_fleet.Wait, 16) else (Net_fleet.Abort, 2)
    in
    let abort_at =
      (* every fourth case also pulls the operator abort lever at a
         random committed boundary, so the rollback path is probed even
         when no fault escalates *)
      if i mod 4 = 3 && rounds > 1 then Some (1 + Rng.int rng (rounds - 1))
      else None
    in
    let supervision =
      chaos_supervision ~hold ~hold_budget ~sup_seed:case_seed
    in
    let verdict (report : Net_fleet.report) =
      let twin policy stamps against =
        let differ what =
          Printf.sprintf "final %s differ from the %s twin" what against
        in
        Ok (policy, stamps, (differ "tables", differ "stamps"))
      in
      match report.Net_fleet.outcome with
      | Net_fleet.Completed ->
          twin sc.new_policy (Net_plan.stamps_after plan) "new policy"
      | Net_fleet.Aborted _ ->
          (* abort contract: the fleet is byte-identical to a twin on
             which the rollout never started *)
          twin sc.old_policy (Net_plan.stamps_before plan) "pre-rollout"
      | Net_fleet.Held k ->
          Error (k, Printf.sprintf "rollout wedged (held at round %d)" k)
      | Net_fleet.Crashed -> Error (-1, "unexpected crash outcome")
    in
    let lanes, _ =
      per_kind (fun kind name ->
          let dir = Journal.fresh_dir ~prefix:"fr-conform-chaos" in
          let report, probes, named_tables =
            net_lane divergences ~kind ~scheduler:name ~shards ~capacity
              ?domains ~journal:dir ~samples ~tag sc plan
              ~execute:(fun ~probe fleet ->
                Net_fleet.execute ~probe ~faults ~supervision
                  ?abort_after_rounds:abort_at fleet plan)
              ~verdict
          in
          rm_tree dir;
          (name, report, probes, named_tables))
    in
    (* Cross-lane: every scheduler must reach the same verdict, and the
       lanes that settled must hold identical tables. *)
    agree divergences
      (List.map
         (fun (name, r, _, _) -> (name, outcome_name r.Net_fleet.outcome))
         lanes)
      (fun ref_name ref_outcome o ->
        tag (Printf.sprintf "outcome %s but %s saw %s" o ref_name ref_outcome));
    same_tables divergences ~tag (List.map (fun (_, _, _, t) -> t) lanes);
    let case_outcome, case_retried, case_quarantines, case_recovered,
        case_probes =
      match lanes with
      | (_, r, probes, _) :: _ ->
          ( outcome_name r.Net_fleet.outcome,
            r.Net_fleet.retried,
            r.Net_fleet.quarantines,
            r.Net_fleet.recovered,
            probes )
      | [] -> ("none", 0, 0, 0, 0)
    in
    {
      case_index = i;
      case_seed;
      case_shape = Fr_net.Topo.shape_name topo;
      case_nodes = nodes;
      case_flows = flows;
      case_rounds = rounds;
      case_faults =
        List.concat_map
          (fun (node, fs) ->
            List.map (fun f -> Net_scenario.fault_to_string (node, f)) fs)
          faults;
      case_hold = (match hold with Net_fleet.Wait -> "wait" | _ -> "abort");
      case_abort_at = abort_at;
      case_outcome;
      case_retried;
      case_quarantines;
      case_recovered;
      case_probes;
    }
  in
  let chaos_cases, chaos_wall_ms =
    Measure.time_ms (fun () -> List.init cases run_case)
  in
  let outcomes =
    List.fold_left
      (fun acc c ->
        let key =
          match String.index_opt c.case_outcome '@' with
          | Some k -> String.sub c.case_outcome 0 k
          | None -> c.case_outcome
        in
        match List.assoc_opt key acc with
        | Some n -> (key, n + 1) :: List.remove_assoc key acc
        | None -> (key, 1) :: acc)
      [] chaos_cases
    |> List.sort compare
  in
  {
    chaos_seed = seed;
    chaos_cases;
    chaos_outcomes = outcomes;
    chaos_divergences = List.rev !divergences;
    chaos_wall_ms;
  }

let pp_chaos_report ppf r =
  Format.fprintf ppf "net chaos: %d cases from seed %d, %.0f ms@."
    (List.length r.chaos_cases)
    r.chaos_seed r.chaos_wall_ms;
  Format.fprintf ppf "  outcomes:%s@."
    (String.concat ""
       (List.map
          (fun (k, n) -> Printf.sprintf " %s=%d" k n)
          r.chaos_outcomes));
  let total f = List.fold_left (fun a c -> a + f c) 0 r.chaos_cases in
  Format.fprintf ppf
    "  %d retries, %d quarantines, %d node recoveries, %d probe points/lane@."
    (total (fun c -> c.case_retried))
    (total (fun c -> c.case_quarantines))
    (total (fun c -> c.case_recovered))
    (total (fun c -> c.case_probes));
  Format.fprintf ppf "  fingerprint: %s@." (chaos_fingerprint r);
  pp_divergences ppf r.chaos_divergences
