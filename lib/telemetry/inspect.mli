(** Pure analysis over a {!Journal}: rebuild correlated control loops
    and summarize them.

    This is the engine behind [planck_cli inspect]: given the events of
    a journal (live or parsed back from NDJSON) it decomposes each
    correlation id into the named stages of the paper's Fig 12/15
    timeline — detect (congestion seen at the collector), notify
    (controller received the event), decide (TE picked a new route),
    install (ARP packet_out injected / OpenFlow rule installed), and
    effective (first sample of the flow on its new path, the Fig 16
    vantage point). *)

module Time = Planck_util.Time

type loop = {
  corr : int;
  flow : string option;
      (** [None] when the congestion event produced no reroute (e.g. TE
          found no better path). *)
  detect : Time.t;
  notify : Time.t option;
  decide : Time.t option;
  install : Time.t option;
  effective : Time.t option;
}
(** One (correlation id, rerouted flow) pair. A congestion event that
    reroutes several flows yields several loops sharing [detect] and
    [notify]. *)

val complete : loop -> bool
(** All five stages present. *)

val total : loop -> Time.t option
(** detect -> effective, when complete. *)

val loops : Journal.event list -> loop list
(** Rebuild loops, ordered by detection time. *)

val stage_durations : loop list -> (string * float list) list
(** Per timeline leg — the four inter-stage legs ["detect->notify"] ..
    ["install->effective"] plus the total ["detect->effective"], in
    timeline order — the leg's duration in milliseconds for every
    complete loop (use {!Planck_util.Stats.percentile} on each list). *)

val chrome_trace : Journal.event list -> string
(** The journal as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...]}]) for [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}:
    - every event is an instant ([ph:"i"]) with [cat]
      {!Journal.source_of_body}, [name] {!Journal.name_of_body} and the
      remaining {!Journal.event_to_json} fields as [args];
    - every {!loops} loop is a [control_loop] complete slice
      ([ph:"X"], category [control_loop]) from detect to its last
      recorded stage, with one nested slice per recorded
      {!stage_durations} leg. Each loop has its own track ([tid] = its
      1-based rank in {!loops}), since the loops of one congestion
      event share a correlation id and overlap.

    Records are sorted by timestamp; [ts] and [dur] are microseconds,
    and integer-nanosecond stamps round-trip exactly. Each category
    gets its own [pid], named by an [M]-phase [process_name] record. *)

val flap_counts : Journal.event list -> (string * int) list
(** Reroute decisions per flow, most-rerouted first. A flow rerouted
    more than once within a journal is flapping. *)

val count_events : Journal.event list -> (string * int) list
(** Occurrences per event name ("packet_drop", "retransmit", ...),
    descending. *)

val estimate_errors :
  names:string list ->
  rows:(float * float array) list ->
  (string * float) list
(** Pair [true:<flow>] / [est:<flow>] timeseries columns and compute
    each flow's mean relative estimation error over samples where the
    true rate is significant (> 0.05 Gbps) and the estimate is
    defined. *)
