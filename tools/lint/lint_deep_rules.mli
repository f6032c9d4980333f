(** The deep (typed, whole-repo) rule tier: hot-path reachability,
    type-aware poly-compare / float-equality, deep hot-alloc /
    hot-schedule, dead-export, plus [Lint_taint]'s determinism rule.

    Inline suppression directives apply to these findings like to AST
    ones; each carries a stable [symbol] (the qualified def or export
    id) so baseline entries survive line churn. *)

type t

val default_hot_roots : string list
(** The per-packet / per-event entry points: switch ingress/forward,
    collector sample path, engine and event-queue dispatch, tcp segment
    handling. *)

val prepare : ?hot_roots:string list -> Lint_cmt_index.t -> t
(** Build the hot closure (forward reachability from [hot_roots]). *)

val index : t -> Lint_cmt_index.t

val roots : t -> string list
(** The roots [prepare] was given (defaulted or not) — lets the domain
    tier extend them with its own shard roots. *)

val is_hot : t -> string -> bool
val hot_set : t -> string list
val hot_chain : t -> string -> string
(** Witness chain from a root to the given hot def. *)

val findings : ?dead_export:bool -> t -> Lint_finding.t list
(** All deep findings (typed events + dead exports + determinism
    taint). [dead_export:false] skips the export analysis — used when
    only part of the repo's cmt artifacts are guaranteed to exist, where
    missing referencing units would fabricate dead exports. *)

val load_baseline : string -> ((string * string) list, string) result
(** Parse a baseline file: one [<rule> <symbol> -- justification] per
    line, [#] comments and blanks ignored. *)

val apply_baseline :
  (string * string) list -> Lint_finding.t list ->
  Lint_finding.t list * Lint_finding.t list
(** [apply_baseline entries findings] is [(kept, baselined)]; a finding
    is baselined when some entry matches its [(rule, symbol)]. Findings
    with an empty symbol are never baselined. *)
