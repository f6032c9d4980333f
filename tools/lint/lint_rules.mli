(** The rule catalog and the single-pass AST checker.

    The catalog holds every rule id. {!check_structure} runs the rules
    that need only the Parsetree — the determinism bans (wall-clock,
    ambient-random, hashtbl-iteration) and the hygiene rules — each
    scoped by path and by what the module defines. The typed tier
    ({!Lint_deep_rules} and the domain/ownership tiers) implements the
    rest on the [.cmt] artifacts. Judgement calls go through the
    suppression syntax ([(* planck-lint: allow <rule> -- reason *)]). *)

type rule = {
  id : string;
  group : string;
      (** "determinism" | "hotpath" | "hygiene" | "domain" | "ownership" *)
  default_severity : Lint_finding.severity;
  doc : string;
}

val catalog : rule list
(** Every rule the linter knows, in display order. *)

val find : string -> rule option

val is_known : string -> bool
(** True for catalog ids and the ["all"] wildcard used in suppressions. *)

val check_structure : path:string -> Parsetree.structure -> Lint_finding.t list
(** Run every AST rule over one parsed implementation. [path] is the
    repo-relative path and drives rule scoping ([lib/] vs [bin/],
    telemetry exemptions). *)

val missing_mli : path:string -> has_mli:bool -> Lint_finding.t list
(** The one file-level rule: a [lib/] .ml without a sibling .mli. *)
