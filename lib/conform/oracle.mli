(** The differential conformance oracle.

    One seeded trace is replayed through {e every} standard scheduler
    (Naive, RuleTris, FR-O, FR-SD, FR-SB), each driving its own
    {!Fr_switch.Agent} with the shadow-table check on, and the oracle
    cross-examines the five tables after every event:

    - {b sequence validity} — the agent runs {!Fr_sched.Check.sequence}
      over every emitted sequence before it touches the TCAM; a rejection
      surfaces as a ["verify: "]-prefixed error and is {e always} a
      divergence (the scheduler emitted a wrong sequence);
    - {b dependency invariant} — {!Fr_tcam.Tcam.check_dag_order} on every
      intermediate state, including states left by injected faults;
    - {b lookup equivalence} — seeded packet probes, sampled to hit pool
      rules: the TCAM answer ({!Fr_switch.Agent.lookup}, highest address)
      must name the same rule as the priority-sorted linear scan
      ({!Fr_switch.Agent.semantic_lookup});
    - {b store agreement} — agents whose accept histories are identical
      must hold identical [(id, action)] stores;
    - {b determinism} — when the trace embeds recordings, each scheduler's
      fresh emissions must reproduce them op for op;
    - {b no silent rule loss} — across an event the installed id set gains
      only an [Add]'s id and loses only a [Remove]'s (the service modes
      below hold the same law at every flush, over the queued drain plan).

    Schedulers are allowed to {e disagree on acceptance} (a capacity
    rejection on one layout is not a bug on another — the "skip on
    Table_full" allowance); they are never allowed to diverge silently.

    Fault injection ({!config.fault_prob}) installs a {!Fr_tcam.Fault}
    plan on the FastRule agents only — their bookkeeping recomputes from
    TCAM truth, so a sequence cut mid-way is a state the oracle can hold
    to the same invariants.  The stateful baselines run fault-free and
    anchor the comparison. *)

type outcome =
  | Applied
  | Rejected of string  (** scheduling/request rejection — allowed skew *)
  | Verify_failed of string  (** shadow table refused the sequence *)
  | Faulted of string  (** injected hardware failure cut the sequence *)

val pp_outcome : Format.formatter -> outcome -> unit

type divergence = {
  event : int;  (** event index; [-1] for end-of-run checks *)
  scheduler : string;  (** offending scheduler (kind name) *)
  detail : string;
}

val pp_divergence : Format.formatter -> divergence -> unit

type config = {
  probes : int;  (** packets sampled per event (default 8) *)
  verify : bool;
      (** shadow-table check on every sequence (default [true]; turn off
          only to baseline the check's overhead on trusted schedulers —
          a saboteur without the net crashes its agent, which the oracle
          reports as a divergence but cannot localise) *)
  record : bool;  (** embed each scheduler's emissions in the report trace *)
  sabotage : (string * Fr_sched.Sabotage.mode) list;
      (** mangle these schedulers (by kind name, e.g. ["fr-o"]) — the
          self-test hook behind [conform --break] *)
  fault_prob : float;  (** per-write failure probability, 0 = off *)
  fault_seed : int;  (** offsets the trace seed for the fault streams *)
  max_failures : int;  (** injection budget per agent; [-1] unlimited *)
}

val default_config : config
(** 8 probes, verify on, no recording, no sabotage, no faults. *)

type column = {
  scheduler : string;
  applied : int;
  rejected : int;
  verify_failed : int;
  faulted : int;
  crashed : string option;
      (** an exception escaped the agent; it sat out the remaining events *)
}

type report = {
  trace : Trace.t;  (** input trace, with recordings when [record] *)
  columns : column list;  (** per scheduler, trace order *)
  events_run : int;
  probes_run : int;  (** total packets probed (per agent) *)
  divergences : divergence list;
  checked_ops : int;  (** ops through {!Fr_sched.Check.sequence}, summed *)
  snapshots_checked : int;
      (** published mid-cascade images held to the pre-or-post law, summed
          over lanes and events *)
  verify_ms : float;  (** wall-clock inside the check, summed *)
  wall_ms : float;
}

val clean : report -> bool
(** No divergences and no crashed agent. *)

val run : ?config:config -> Trace.t -> report
(** Replay the trace through all five schedulers and cross-examine.
    Deterministic: equal traces and configs yield equal reports (up to
    the wall-clock fields).

    Besides the checks listed above, the oracle captures {e every} snapshot
    image an agent publishes while a flow-mod cascades
    ({!Fr_switch.Agent.set_publish_observer}) and holds each to the pre-or-post law: over the event's probe packets,
    the image's answer vector must equal the semantic table's before the
    flow-mod or after it — never a mix of the two, never a third state.
    (The one sanctioned exception: a [Set_action] on a dead row relocates
    via Remove + Add, whose mid-flight snapshots legitimately miss the
    rule.)  This is the proof that wait-free readers of the published
    image can never observe a half-applied cascade. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Crash-recovery differential mode}

    The durability counterpart of {!run}: the same trace is driven, per
    scheduler kind, through a single-shard {e journaled}
    {!Fr_ctrl.Service}, flushed every [batch] events, and then killed
    after [at] events via {!Fr_ctrl.Service.simulate_crash} — with
    [mid_drain], in the worst spot, after the begin markers went durable
    but before any commit.  {!Fr_ctrl.Service.recover} rebuilds a service
    from the journal directory alone, and the oracle checks, for every
    kind:

    - the recovered installed state (store image and probe lookups)
      equals a journal-free reference service driven over just the
      {e committed} prefix;
    - after one more flush (draining the requeued suffix), it equals the
      reference over the {e whole} prefix — no accepted intent was lost;
    - the recovered agent passes
      {!Fr_switch.Agent.verify_consistent}, and recovery itself reports
      no warnings. *)

type crash_column = {
  crash_scheduler : string;
  committed : int;  (** events covered by completed flushes *)
  suffix : int;  (** events submitted but uncommitted at the crash *)
  replayed_drains : int;
  requeued : int;
  recovered_rules : int;
}

type crash_report = {
  crash_trace : Trace.t;
  crash_at : int;  (** clamped to the trace length *)
  mid_drain : bool;
  crash_columns : crash_column list;
  crash_divergences : divergence list;
  crash_wall_ms : float;
}

val crash_clean : crash_report -> bool

val run_crash :
  ?probes:int ->
  ?batch:int ->
  ?mid_drain:bool ->
  ?at:int ->
  ?domains:int ->
  ?capture:string ->
  Trace.t ->
  crash_report
(** Defaults: 8 probes, flush every 4 events, clean crash between
    flushes, [at] = the whole trace.  [domains] is handed to every
    service the oracle builds (reference, journaled run, recovery) — with
    [domains > 1] the oracle doubles as the proof that the parallel drain
    path is observationally equivalent to the sequential one.  Journals live in (and are cleaned
    from) a fresh temp directory per scheduler — unless [capture] names a
    directory, in which case each diverging kind leaves a {!Bundle}
    (trace + parameters + journal copy) at [capture/crash-<kind>]
    {e before} the temp journal is deleted, replayable offline via
    [conform --replay].
    @raise Invalid_argument if [batch <= 0]. *)

val pp_crash_report : Format.formatter -> crash_report -> unit

(** {1 Failover differential mode}

    The graceful-degradation counterpart of {!run_crash}: per scheduler
    kind, the trace is driven through a multi-shard failover-enabled
    {!Fr_ctrl.Service} with a {e persistent latency fault} on one shard
    (every hardware op succeeds, [slow_ms] late), flushed every [batch]
    events.  The slow-call breaker quarantines the sick shard, failover
    routing diverts new ids to healthy siblings, and after the stream
    ends the oracle heals the fault and keeps flushing until the overlay
    drains home.  It then checks, against a never-faulted twin of the
    same shape:

    - no submit was shed and no op failed (latency must degrade service,
      not correctness);
    - the fault actually engaged ([diverted > 0] — otherwise the run is
      vacuous and reported as such);
    - the overlay converges back to 0 diverted ids with every breaker
      closed;
    - the union of all shards' installed tables, and cross-shard probe
      lookups, equal the twin's — lookup equivalence under failover. *)

type failover_column = {
  failover_scheduler : string;
  fo_applied : int;
  fo_failed : int;
  fo_shed : int;
  fo_diverted : int;  (** ids routed away from the sick home *)
  fo_rebalanced : int;  (** ids drained back home after the heal *)
  heal_flushes : int;  (** flushes from heal to convergence *)
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

val failover_clean : failover_report -> bool

val run_failover :
  ?probes:int ->
  ?batch:int ->
  ?shards:int ->
  ?fault_shard:int ->
  ?slow_ms:float ->
  ?domains:int ->
  ?capture:string ->
  Trace.t ->
  failover_report
(** Defaults: 8 probes, flush every 4 events, 3 shards, the fault on
    shard 0, 8 ms/op — far above the supervisor's 2 ms/op slow-call
    threshold, so the sick shard always trips and healthy ones never do.
    [domains] drives both the faulted service and its twin, so the whole
    quarantine/divert/heal/rebalance cycle is exercised under the
    parallel drain path.
    With [capture], diverging kinds leave a bundle at
    [capture/failover-<kind>].
    @raise Invalid_argument if [batch <= 0], [shards < 2], [fault_shard]
    is out of range, or [slow_ms <= 0]. *)

val pp_failover_report : Format.formatter -> failover_report -> unit

(** {1 Degraded-hardware differential mode}

    The partial-degradation counterpart of {!run_failover}: per scheduler
    kind, the trace is driven through a multi-shard failover-enabled
    {!Fr_ctrl.Service} with a {e seeded stuck bank} — [dead_frac] of one
    shard's rows reject every write — flushed every [batch] events.  The
    firmware discovers the holes through write failures (each condemns
    its row in the {!Fr_tcam.Deadmap}), the supervisor's retry budget
    absorbs the discovery so the breaker never opens, the schedulers
    step over the dead rows, and the service diverts only the overflow
    once the shard's effective capacity is exhausted.  Checks:

    - at every flush boundary the hardware lookup equals the semantic
      scan (dependency order survives hole-stepping);
    - no submit is shed — a 10%-dead shard still serves;
    - after the heal, the probe drill revives every row and the run
      converges (no diverted ids, no pending work, no dead rows, all
      breakers closed);
    - the final union table and post-heal probe lookups equal a
      never-faulted twin's. *)

type degraded_column = {
  degraded_scheduler : string;
  dg_applied : int;
  dg_failed : int;
      (** transient per-drain failures — the discovery cost, not a gate *)
  dg_shed : int;
  dg_diverted : int;
  dg_degraded_diverted : int;
      (** diverts caused by shrunken capacity, not a quarantine *)
  dg_dead_max : int;
      (** most rows simultaneously condemned; [0] means the workload never
          wrote into the stuck bank — certification entry points assert
          [> 0] on traces chosen to guarantee contact *)
  dg_recovered : int;  (** rows revived by the probe drill *)
  dg_heal_flushes : int;
}

type degraded_report = {
  degraded_trace : Trace.t;
  dg_shards : int;
  dg_fault_shard : int;
  dg_dead_frac : float;
  dg_seeded_dead : int;  (** rows in the seeded stuck bank *)
  degraded_columns : degraded_column list;
  degraded_divergences : divergence list;
  degraded_wall_ms : float;
}

val degraded_clean : degraded_report -> bool

val run_degraded :
  ?probes:int ->
  ?batch:int ->
  ?shards:int ->
  ?fault_shard:int ->
  ?dead_frac:float ->
  ?domains:int ->
  ?capture:string ->
  Trace.t ->
  degraded_report
(** Defaults: 8 probes, flush every 4 events, 3 shards, the stuck bank on
    shard 0 covering 10% of its rows.  [domains] drives both the faulted
    service and its twin, so discovery, hole-stepping, overflow diverts
    and the probe-drill heal all run under the parallel drain path too.
    With [capture], diverging kinds leave a bundle at
    [capture/degraded-<kind>].
    @raise Invalid_argument if [batch <= 0], [shards < 2], [fault_shard]
    is out of range, or [dead_frac] is outside (0, 1). *)

val pp_degraded_report : Format.formatter -> degraded_report -> unit

(** {1 Network rollout differential mode}

    The fleet-level conformance class: one seeded {!Fr_net.Scenario}
    (topology + old → new policy diff) is planned once
    ({!Fr_net.Plan.make}) and then rolled out, per scheduler kind,
    through a full {!Fr_net.Fleet} — every topology node a complete
    [Fr_ctrl.Service] running that scheduler.  The oracle hooks the
    fleet's probe callback, so at {e every} reachable instant — the
    initial state, after each switch's flush inside every round
    (mid-flush probe points), after each individual ingress-stamp flip,
    and at each round boundary — it traces seeded pure-region packets
    hop by hop through the live tables ({!Fr_net.Check.consistent}) and
    demands:

    - {b per-packet consistency} — every trace equals exactly the path
      its (flow, stamped version) configures: entirely the old policy's
      path or entirely the new one's, never a mix;
    - {b waypoint preservation} — a flow's configured waypoint is on
      every trace, at every instant;
    - {b delivery} — traces end at the configured egress, no drops,
      no loops, no rule gaps;
    - {b convergence} — the final tables and stamps equal a fresh fleet
      built directly from the new policy, and all five schedulers land
      on identical tables.

    All lanes trace the same packets (same probe PRNG seed), so any
    disagreement is attributable to the scheduler under test. *)

type net_column = {
  net_scheduler : string;
  net_rounds : int;  (** rounds committed *)
  net_applied : int;  (** flow-mods applied across the fleet *)
  net_failed : int;
  net_probes : int;  (** probe points checked for this lane *)
}

type net_report = {
  net_shape : string;
  net_nodes : int;
  net_flows : int;  (** old-policy flows *)
  net_rounds_planned : int;
  net_columns : net_column list;
  net_divergences : divergence list;
      (** [event] is the round index; [-1] for initial/final checks *)
  net_wall_ms : float;
}

val net_clean : net_report -> bool

val run_net :
  ?batch:int ->
  ?samples:int ->
  ?shards:int ->
  ?capacity:int ->
  ?domains:int ->
  Fr_net.Scenario.t ->
  net_report
(** Defaults: [batch = 4] mods per switch per round, [samples = 2]
    packets per stamped flow per probe point, 2 shards of 64 slots per
    node.  [domains] feeds both the fleet-level node fan-out and every
    node service — running the oracle under [domains = 1] and [= 4]
    (plus the CI journal-byte diff) extends the parallel ≡ sequential
    equivalence proof to the fleet.
    @raise Invalid_argument if the scenario does not plan. *)

val pp_net_report : Format.formatter -> net_report -> unit

(** {1 Network chaos certification mode}

    The switch-loss counterpart of {!run_net}: a seeded stream of random
    rollout scenarios, each executed under a random per-switch fault
    schedule ({!Fr_net.Scenario.chaos_faults} — control-agent crashes at
    round boundaries and mid-flush, slow acks, stuck TCAM banks) with
    per-node supervision engaged.  Even cases run [hold = Wait] with a
    generous pass budget; odd cases run [hold = Abort] with a tight one,
    so fault escalation triggers real compensating rollbacks; every
    fourth case additionally pulls the operator abort lever at a random
    committed boundary.  Per case and per scheduler lane the oracle
    demands:

    - {b consistency at every instant} — {!Fr_net.Check.consistent}
      against the {e original} plan at the initial state, after every
      node flush, every retry, every mid-flush node crash, every
      individual stamp flip (forward and rolled-back), and every round
      boundary;
    - {b abort atomicity} — an [Aborted] rollout's fleet (tables and
      stamps) equals a twin on which the rollout never started, a
      [Completed] one equals the new-policy twin, and a [Held] verdict
      (a wedged rollout) is itself a divergence;
    - {b verdict agreement} — all five schedulers reach the same
      outcome and identical settled tables.

    Everything derives from [seed], and supervision runs on modelled
    time, so the whole report (see {!chaos_fingerprint}) is
    deterministic and domain-count-invariant. *)

type chaos_case = {
  case_index : int;
  case_seed : int;
  case_shape : string;
  case_nodes : int;
  case_flows : int;
  case_rounds : int;  (** forward rounds planned *)
  case_faults : string list;  (** {!Fr_net.Scenario.fault_to_string} forms *)
  case_hold : string;  (** ["wait"] or ["abort"] *)
  case_abort_at : int option;  (** operator abort boundary, if pulled *)
  case_outcome : string;  (** e.g. ["completed"], ["aborted@2-3"] *)
  case_retried : int;
  case_quarantines : int;
  case_recovered : int;
  case_probes : int;  (** probe points checked per lane *)
}

type chaos_report = {
  chaos_seed : int;
  chaos_cases : chaos_case list;
  chaos_outcomes : (string * int) list;
      (** outcome kind -> case count, sorted *)
  chaos_divergences : divergence list;
  chaos_wall_ms : float;
}

val chaos_clean : chaos_report -> bool

val chaos_fingerprint : chaos_report -> string
(** Digest of every wall-clock-free field of the report — equal across
    [domains] settings for equal seeds, which is what the CI chaos job
    asserts. *)

val run_net_chaos :
  ?cases:int ->
  ?samples:int ->
  ?shards:int ->
  ?capacity:int ->
  ?domains:int ->
  seed:int ->
  unit ->
  chaos_report
(** Defaults: 100 cases, [samples = 2] packets per stamped flow per
    probe point, 2 shards of 64 slots per node.  Each case builds a
    journaled fleet per scheduler lane in a fresh temp directory
    (removed afterwards) — crash faults re-adopt nodes from those
    journals mid-rollout.
    @raise Invalid_argument if [cases < 1]. *)

val pp_chaos_report : Format.formatter -> chaos_report -> unit
