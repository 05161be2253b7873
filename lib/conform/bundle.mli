(** Divergence bundles: a failing conformance run, frozen for offline
    replay.

    When the crash or failover oracle finds a divergence, the interesting
    state is ephemeral — the trace lives in memory and the journal in a
    temp directory the oracle deletes on exit.  A bundle captures both
    before they vanish: a directory holding the serialized trace
    ({!Trace.save}), a [bundle.meta] header recording exactly which
    differential mode diverged and with what parameters, and (for crash
    runs) a verbatim copy of the journal directory.  [conform --replay]
    on a bundle re-runs the recorded mode bit-for-bit. *)

type info = {
  mode : string;  (** ["crash"], ["failover"] or ["degraded"] *)
  at : int;  (** crash point (events run before the simulated crash) *)
  mid_drain : bool;  (** begin markers on disk, no commit *)
  batch : int;  (** events per flush window *)
  shards : int;
  fault_shard : int;  (** shard under the persistent fault (failover) *)
  slow_ms : float;  (** latency-fault cost per hardware op (failover) *)
  dead_frac : float;
      (** stuck-bank fraction of the sick shard (degraded); a [bundle.meta]
          without the field loads as [0.10], the oracle's default *)
}

val write :
  dir:string -> info -> trace:Trace.t -> journal:string option -> string
(** Materialise a bundle at [dir] (created if missing): the trace, the
    meta header, and — when [journal] names a directory — a [journal/]
    copy of its files.  Returns [dir]. *)

val is_bundle : string -> bool
(** [dir] holds a [bundle.meta] and a trace — i.e. [--replay] should
    treat it as a bundle, not a bare trace file. *)

val load : string -> (info * Trace.t, string) result

val journal_dir : string -> string option
(** The bundle's captured journal copy, when it has one. *)

val trace_file : string -> string
(** Path of the bundle's serialized trace. *)

val pp_info : Format.formatter -> info -> unit
