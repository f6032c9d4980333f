(* planck-lint: static analysis for the Planck reproduction.

   Usage: planck_lint [--json] [--out FILE] [--list-rules]
                      [--only-rule RULE] [--cmt-dir DIR] [--baseline FILE]
                      [--no-dead-export] [--shared-state-out FILE]
                      [--ownership-out FILE] PATH...

   Every run loads the repo's .cmt typedtree artifacts (build first) and
   runs the typed tier — call-graph hot-path reachability,
   instantiated-type compare checks, interprocedural taint, the domain
   and ownership tiers, dead exports — alongside the AST pass for the
   determinism bans and hygiene rules. Inline allow directives and the
   baseline are the only ways to suppress a finding.

   Exits 1 when any error-severity finding survives suppressions and
   the baseline, 2 on a usage error or when no cmt units are found. *)

module F = Planck_lint_lib.Lint_finding
module Rules = Planck_lint_lib.Lint_rules
module Engine = Planck_lint_lib.Lint_engine
module Report = Planck_lint_lib.Lint_report

let () =
  let json = ref false in
  let out = ref "" in
  let list_rules = ref false in
  let cmt_dirs = ref [] in
  let baseline = ref "" in
  let dead_export = ref true in
  let shared_state_out = ref "" in
  let ownership_out = ref "" in
  let only_rules = ref [] in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the machine-readable JSON report");
      ("--out", Arg.Set_string out, "FILE write the report to FILE instead of stdout");
      ("--list-rules", Arg.Set list_rules, " print the rule catalog and exit");
      ( "--only-rule",
        Arg.String
          (fun r ->
            if not (Rules.is_known r) then begin
              prerr_endline
                (Printf.sprintf
                   "planck_lint: unknown rule %S for --only-rule (try \
                    --list-rules)"
                   r);
              exit 2
            end;
            only_rules := r :: !only_rules),
        "RULE keep only findings of RULE (repeatable)" );
      ( "--cmt-dir",
        Arg.String (fun d -> cmt_dirs := d :: !cmt_dirs),
        "DIR scan DIR recursively for .cmt/.cmti artifacts (repeatable; \
         default _build/default, or . when absent)" );
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE typed-finding baseline file (default \
         tools/lint/lint_baseline.txt when present)" );
      ( "--no-dead-export",
        Arg.Clear dead_export,
        " skip the dead-export analysis (for partial cmt sets)" );
      ( "--shared-state-out",
        Arg.Set_string shared_state_out,
        "FILE write the shard-confinement inventory to FILE (.json for \
         the machine-readable artifact, else the committed text format)" );
      ( "--ownership-out",
        Arg.Set_string ownership_out,
        "FILE write the ownership-tier inventory to FILE (.json for the \
         machine-readable artifact, else the committed text format)" );
    ]
  in
  let usage = "planck_lint [options] PATH..." in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    print_string (Report.rules_text ());
    exit 0
  end;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let deep =
    let dirs =
      match List.rev !cmt_dirs with
      | [] ->
          if Sys.file_exists "_build/default" then [ "_build/default" ]
          else [ "." ]
      | dirs -> dirs
    in
    let default_baseline = "tools/lint/lint_baseline.txt" in
    let baseline_file =
      if !baseline <> "" then Some !baseline
      else if Sys.file_exists default_baseline then Some default_baseline
      else None
    in
    {
      Engine.cmt_dirs = dirs;
      baseline_file;
      dead_export = !dead_export;
      shared_state_out =
        (if !shared_state_out = "" then None else Some !shared_state_out);
      ownership_out =
        (if !ownership_out = "" then None else Some !ownership_out);
    }
  in
  let result =
    try
      Engine.lint_paths ~deep ~only_rules:(List.rev !only_rules)
        (List.rev !paths)
    with Failure msg ->
      prerr_endline ("planck_lint: " ^ msg);
      exit 2
  in
  let findings = result.Engine.kept in
  let suppressed =
    result.Engine.suppressed_count + result.Engine.baselined_count
  in
  let files = result.Engine.files_linted in
  let rendered =
    if !json then Report.json_of ~findings ~suppressed ~files
    else Report.text_of ~findings ~suppressed ~files
  in
  (if !out = "" then print_string rendered
   else
     let oc = open_out !out in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc rendered));
  let errors = List.exists (fun f -> f.F.severity = F.Error) findings in
  exit (if errors then 1 else 0)
