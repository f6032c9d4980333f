(** Self-profiling spans: wall-clock time and minor-heap words
    attributed to named subsystems.

    A span is registered once (cold path) and entered/exited around a
    unit of runtime work — engine dispatch, the switch pipeline, the
    collector ring drain, a sketch update, a TE decision, journal I/O.
    While profiling is enabled, each exit records into the span's
    metrics (in the owning {!Metrics} registry, subsystem ["profile"],
    label = span name):

    - ["span_ns"] histogram — inclusive wall time per visit (log2
      buckets, so the export carries the latency distribution);
    - ["self_ns"] counter — exclusive time: inclusive minus the time
      spent inside nested child spans (flamegraph-style self time);
    - ["minor_words"] counter — exclusive minor-heap words allocated
      by this domain ({!Gc.minor_words}).

    Disabled, {!enter}/{!exit} are a single load+test of one flag (no
    allocation, no clock read — the same discipline as {!Metrics}
    updates). Enabled, each span edge costs one monotonic clock read,
    one {!Gc.minor_words} read and a few int stores, and allocates
    nothing, so "words/call" measures the profiled code, not the
    profiler. Promoted and major words and collection counts are not
    kept per span; {!report} reads them once for the whole run.

    Spans nest on a fixed-depth preallocated frame stack (no allocation
    per visit). An {!exit} whose span is not the innermost open frame
    unwinds to the matching frame, discarding abandoned inner frames —
    so a span body that escapes by exception self-heals at the next
    well-paired exit.

    Each domain has its own frame stack, but span metrics are plain
    {!Metrics} counters shared by every domain. Under [--shards N>1],
    concurrent domains lose each other's increments, so span calls and
    totals read low; the figures are exact only on one domain. *)

type t
(** A registered span handle. *)

val register : ?registry:Metrics.registry -> string -> t
(** [register name] creates (or returns the existing) span [name],
    backed by metrics in [registry] (default {!Metrics.default}).
    Recording only happens while both {!enabled} and the owning
    registry's enabled flag are on. *)

val reset : unit -> unit
(** Drop every span registered against a non-default registry from the
    process-wide catalog. Toplevel handles (registered at module init
    into {!Metrics.default}) are kept — they cannot re-register.
    Bench and test setup call this so scoped-registry spans do not
    accumulate across runs. *)

val set_enabled : bool -> unit
(** Enables/disables all spans process-wide and resets the open-frame
    stack (any spans open at the flip are abandoned, recording
    nothing). *)

val enabled : unit -> bool

val enter : t -> unit
(** Opens a frame for [t]. One branch when disabled; silently drops the
    frame when the stack is at depth {!max_depth}. *)

val exit : t -> unit
(** Closes the innermost open frame for [t] and records its metrics.
    One branch when disabled; a no-op if no frame for [t] is open. *)

val with_span : t -> (unit -> 'a) -> 'a
(** [with_span t f] brackets [f ()] with {!enter}/{!exit}, exiting on
    exception too. Convenience for cold call sites and tests; hot sites
    call {!enter}/{!exit} directly to avoid the closure. *)

val max_depth : int
(** Frame-stack capacity (nesting deeper than this records nothing for
    the excess frames). *)

val set_clock : (unit -> int) option -> unit
(** Replace the wall-clock source (monotonic nanoseconds as [int]) —
    deterministic tests inject a fake clock; [None] restores the real
    one. *)

(** {2 Reporting} *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_ns : int;  (** inclusive wall time, summed over visits *)
  r_self_ns : int;  (** exclusive wall time *)
  r_max_ns : int;  (** worst single visit, inclusive *)
  r_minor_words : int;  (** exclusive minor-heap words, summed over visits *)
}

val summary : ?registry:Metrics.registry -> unit -> row list
(** Live rows for every span registered against [registry], sorted by
    self time, largest first. *)

val rows_of_metrics_json : Json.t -> (row list, string) result
(** Rebuild rows from an exported metrics document — either the
    [{"metrics": [...]}] object {!Export.metrics_to_json} writes or the
    bare metrics list embedded in [bench --json] output. Entries
    outside subsystem ["profile"], and profile quantities a row does not
    carry (such as the per-span GC counts older snapshots hold), are
    ignored; [Error] only if the document shape is not a metrics
    snapshot at all. *)

val render : row list -> string
(** Plain-text report: top spans by self time with share-of-total,
    per-call time and minor words per call. *)

val report : unit -> string
(** The live report after a profiled run: {!render} of {!summary} for
    {!Metrics.default}, then one [gc totals:] line (promoted words,
    major words, minor and major collections) from a single
    {!Gc.quick_stat} taken now. *)
