(** Parsing, suppression handling, and the file-tree driver. *)

val lint_source :
  ?extra:Lint_finding.t list ->
  path:string ->
  source:string ->
  unit ->
  Lint_finding.t list * Lint_finding.t list
(** [lint_source ~path ~source ()] parses [source] as an implementation
    and returns [(kept, suppressed)]: findings that survive the file's
    [(* planck-lint: allow ... *)] directives, and those the directives
    removed. An [allow] directive covers its own line and the line
    below; [allow-file] covers the whole file. [extra] merges file-level
    findings (e.g. missing-mli, typed-tier findings) into the same
    suppression pass. [path] is repo-relative and drives rule scoping;
    the file need not exist on disk. *)

val partition_mli_findings :
  source:string ->
  Lint_finding.t list ->
  Lint_finding.t list * Lint_finding.t list
(** Apply an [.mli] file's suppression directives to deep findings
    attached to it (dead-export); no AST pass is run. *)

type result = {
  kept : Lint_finding.t list;  (** unsuppressed, sorted by location *)
  suppressed_count : int;
  baselined_count : int;  (** deep findings absorbed by the baseline *)
  files_linted : int;
  deep_units : int;  (** cmt units indexed; always > 0 *)
}

type deep_options = {
  cmt_dirs : string list;  (** roots scanned recursively for .cmt/.cmti *)
  baseline_file : string option;
      (** optional [<rule> <symbol> -- justification] baseline; a
          missing file is treated as empty, a malformed one fails *)
  dead_export : bool;
      (** run the dead-export analysis — requires the cmt set to cover
          every referencing unit, or absences fabricate dead exports *)
  shared_state_out : string option;
      (** write the shard-confinement inventory to this path; a [.json]
          suffix selects the machine-readable artifact format, anything
          else the committed text format of
          [tools/lint/shared_state.txt] *)
  ownership_out : string option;
      (** same for the ownership-tier inventory (transfer sites, SPSC
          roles, blocking reaches) of [tools/lint/ownership.txt] *)
}

val lint_paths :
  deep:deep_options -> ?only_rules:string list -> string list -> result
(** Walk files and directories (recursively; [_build] and dotfiles are
    skipped), lint every [.ml], and apply the missing-mli rule using the
    sibling [.mli] set. Paths are reported as given, so run from the
    repo root with [lib bin bench examples]. The cmt index is loaded
    first and its typed findings merge with the AST findings of each
    walked file (inline suppressions apply to both). Typed findings on
    files outside the walked set are dropped. Raises [Failure] if
    [deep.cmt_dirs] hold no cmt units or the baseline is malformed. A
    non-empty [only_rules] restricts [kept] to those rule ids after
    suppression and baseline handling — counters still reflect the full
    run. *)
