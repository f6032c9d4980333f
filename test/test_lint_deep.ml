(* The deep (typed) lint tier: call-graph hot reachability, type-aware
   poly-compare, determinism taint, dead exports, and the baseline.

   Fixtures are type-checked in-process against the stdlib environment
   ([Lint_cmt_index.add_typed_source]), so each test states its whole
   world: the fixture is the unit, [note_unit_ref] plays the part of
   external references, and sink/root lists are injected. *)

module Index = Planck_lint_lib.Lint_cmt_index
module Callgraph = Planck_lint_lib.Lint_callgraph
module Taint = Planck_lint_lib.Lint_taint
module Deep = Planck_lint_lib.Lint_deep_rules
module Engine = Planck_lint_lib.Lint_engine
module Finding = Planck_lint_lib.Lint_finding
module Rules = Planck_lint_lib.Lint_rules

let index_of sources =
  let ix = Index.load ~dirs:[] in
  List.iter
    (fun (unit_name, file, source) ->
      Index.add_typed_source ix ~unit_name ~file ~source)
    sources;
  ix

(* "file:line" of each [rule] finding, in source order *)
let rules_at ~rule findings =
  List.filter_map
    (fun f ->
      if String.equal f.Finding.rule rule then
        Some (Printf.sprintf "%s:%d" f.Finding.file f.Finding.line)
      else None)
    (List.sort Finding.compare_by_location findings)

(* ---- hot-path reachability ---- *)

let reach_fixture =
  {|
let leaf_work x = x * 2
let helper x = leaf_work x + 1
let ingress x = helper x
let cold_path x = leaf_work x - 1
|}

let test_hot_reachability () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", reach_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  Alcotest.(check bool) "root is hot" true (Deep.is_hot t "Fix.ingress");
  Alcotest.(check bool) "direct callee is hot" true (Deep.is_hot t "Fix.helper");
  Alcotest.(check bool)
    "transitive callee is hot" true
    (Deep.is_hot t "Fix.leaf_work");
  Alcotest.(check bool)
    "unreached def is cold" false
    (Deep.is_hot t "Fix.cold_path");
  let chain = Deep.hot_chain t "Fix.leaf_work" in
  Alcotest.(check bool)
    "witness chain starts at the root" true
    (String.length chain >= String.length "Fix.ingress"
    && String.sub chain 0 (String.length "Fix.ingress") = "Fix.ingress")

(* The acceptance witness: with the repo's real cmt artifacts, the hot
   closure reaches [Planck_util__Heap.add] through the switch's ingress
   pipeline — a function the old hot-dir x hot-stem heuristic could never
   flag (lib/util/ was not a hot dir). Runs only when the build tree is
   around (same convention as test_lint's repo-clean check). *)
let test_hot_includes_heap_add () =
  let cwd = Sys.getcwd () in
  let root = Filename.dirname cwd in
  if Sys.file_exists (Filename.concat root "lib") then begin
    let ix = Index.load ~dirs:[ root ] in
    if Index.unit_count ix > 0 then begin
      let t = Deep.prepare ix in
      Alcotest.(check bool)
        "Heap.add is hot via the switch pipeline" true
        (Deep.is_hot t "Planck_util__Heap.add");
      (* Heap.add is not itself a root, so the witness chain must show a
         genuine transitive step from one. *)
      let chain = Deep.hot_chain t "Planck_util__Heap.add" in
      Alcotest.(check bool)
        "witness chain is transitive" true
        (let sub = " -> " in
         let n = String.length chain and m = String.length sub in
         let rec scan i =
           i + m <= n && (String.sub chain i m = sub || scan (i + 1))
         in
         scan 0);
      Alcotest.(check bool)
        "old heuristic scope did not cover lib/util" false
        (List.mem "Planck_util__Heap.add" Deep.default_hot_roots)
    end
  end

(* ---- type-aware poly-compare ---- *)

let poly_fixture =
  {|
type r = { a : int; b : string }
let compare_records (x : r) (y : r) = compare x y
let compare_ints (x : int) (y : int) = compare x y
module Shadow = struct
  let compare (x : int array) (y : int array) = Stdlib.compare x.(0) y.(0)
end
let uses_shadow x y = Shadow.compare x y
let qualified_records (x : r) (y : r) = Stdlib.compare x y
let hash_record (x : r) = Hashtbl.hash x
|}

let test_typed_poly_compare () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", poly_fixture) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  let hits = rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false t) in
  Alcotest.(check (list string))
    "only the record-typed compare/Stdlib.compare/Hashtbl.hash fire"
    [ "lib/fix/fix.ml:3"; "lib/fix/fix.ml:9"; "lib/fix/fix.ml:10" ]
    hits;
  (* the rule is scoped to lib/: the same structured compare under
     bench/ stays clean *)
  let bench = index_of [ ("Fix", "bench/fix.ml", poly_fixture) ] in
  Alcotest.(check (list string))
    "structured compare under bench/ is clean" []
    (rules_at ~rule:"poly-compare"
       (Deep.findings ~dead_export:false (Deep.prepare ~hot_roots:[] bench)))

let float_fixture =
  {|
let close (x : float) (y : float) = x = y
let ints_fine (x : int) (y : int) = x = y
let not_sentinel (x : float) = x <> -1.5
|}

let test_typed_float_equality () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", float_fixture) ] in
  let t = Deep.prepare ~hot_roots:[] ix in
  let hits =
    rules_at ~rule:"float-equality" (Deep.findings ~dead_export:false t)
  in
  Alcotest.(check (list string))
    "float (=) and (<>) against a negated literal fire, int (=) does not"
    [ "lib/fix/fix.ml:2"; "lib/fix/fix.ml:4" ] hits

(* Structured (=) is reported only on the hot path; the same fixture
   with no hot roots stays quiet. *)
let structural_eq_fixture =
  {|
let eq_lists (a : int list) (b : int list) = a = b
let ingress a b = eq_lists a b
|}

let test_hot_structural_equality () =
  let src = [ ("Fix", "lib/fix/fix.ml", structural_eq_fixture) ] in
  let hot =
    Deep.prepare ~hot_roots:[ "Fix.ingress" ] (index_of src)
  in
  Alcotest.(check (list string))
    "hot list (=) fires"
    [ "lib/fix/fix.ml:2" ]
    (rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false hot));
  let cold = Deep.prepare ~hot_roots:[] (index_of src) in
  Alcotest.(check (list string))
    "cold list (=) is allowed" []
    (rules_at ~rule:"poly-compare" (Deep.findings ~dead_export:false cold))

(* ---- hot-alloc and the raise-path exemption ----

   This is the old switch.ml check_port shape: an allocating format call
   whose result feeds [invalid_arg] on a hot function's error path. The
   syntactic tier needed an inline suppression for it; the typed tier
   exempts raise arguments outright, which is why that directive could
   be deleted. A bare allocation on the same hot path still fires; one
   in a function no hot root reaches does not. *)

let raise_fixture =
  {|
let check_port port n =
  if port < 0 || port >= n then
    invalid_arg (Printf.sprintf "bad port %d (have %d)" port n)

let label_packet x = string_of_int x

let ingress port n = check_port port n; label_packet port

let describe port = "port " ^ string_of_int port
|}

let test_hot_alloc_raise_exempt () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", raise_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  let hits = rules_at ~rule:"hot-alloc" (Deep.findings ~dead_export:false t) in
  Alcotest.(check (list string))
    "raise-path sprintf exempt, live allocation fires, cold one does not"
    [ "lib/fix/fix.ml:6" ] hits

(* ---- the profiler span probe ----

   Profile.enter/exit bracket every hot span in the tree, so they are
   themselves deep-tier hot roots: an allocation inside either taxes
   every event even with profiling disabled. The probe plants an
   allocating exit under the real root names and checks hot-alloc fires
   through the profiler root; the repo self-check (test_lint's
   repo-clean case and the @lint alias) is what proves the real
   profiler's disabled path stays allocation-free. *)

let span_probe_fixture =
  {|
let depth = ref 0
let enter _t = incr depth
let exit t = decr depth; print_string (string_of_int t)
|}

let test_profiler_span_probe () =
  Alcotest.(check bool)
    "profiler enter/exit are default hot roots" true
    (List.mem "Planck_telemetry__Profile.enter" Deep.default_hot_roots
    && List.mem "Planck_telemetry__Profile.exit" Deep.default_hot_roots);
  let ix =
    index_of
      [
        ( "Planck_telemetry__Profile",
          "lib/telemetry/profile.ml",
          span_probe_fixture );
      ]
  in
  let t =
    Deep.prepare
      ~hot_roots:
        [ "Planck_telemetry__Profile.enter"; "Planck_telemetry__Profile.exit" ]
      ix
  in
  let hits = rules_at ~rule:"hot-alloc" (Deep.findings ~dead_export:false t) in
  Alcotest.(check (list string))
    "allocating exit fires hot-alloc"
    [ "lib/telemetry/profile.ml:4" ] hits

let schedule_fixture =
  {|
module Engine = struct
  let schedule _e ~delay:_ _f = ()
  let schedule_at _e ~at:_ _f = ()
  let every _e ~period:_ _f = ()
end
let on_packet e = Engine.schedule e ~delay:10 (fun () -> ())
let on_ack e = Engine.schedule_at e ~at:9 (fun () -> ())
let on_sample e = Engine.every e ~period:7 (fun () -> ())
let ingress e = on_packet e; on_ack e; on_sample e
let idle_setup e = Engine.schedule e ~delay:10 (fun () -> ())
let reuse_callback e k = Engine.schedule e ~delay:10 k
|}

let test_hot_schedule () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", schedule_fixture) ] in
  let t = Deep.prepare ~hot_roots:[ "Fix.ingress" ] ix in
  let hits =
    rules_at ~rule:"hot-schedule" (Deep.findings ~dead_export:false t)
  in
  Alcotest.(check (list string))
    "only the per-packet closures fire"
    [ "lib/fix/fix.ml:7"; "lib/fix/fix.ml:8"; "lib/fix/fix.ml:9" ] hits

(* ---- determinism taint ---- *)

let taint_fixture =
  {|
module Journal = struct let record (_ : float) = () end
let now () = Sys.time ()
let log_time () = Journal.record (now ())
let log_const () = Journal.record 0.0
let unused_clock () = Sys.time ()
|}

let taint_config =
  { Taint.sink_patterns = [ "Journal.record" ]; exempt_source = (fun _ -> false) }

let test_taint_reaches_sink () =
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", taint_fixture) ] in
  let findings = Taint.report ~config:taint_config ix in
  Alcotest.(check (list string))
    "clock behind a journal write fires, at the source line"
    [ "lib/fix/fix.ml:3" ]
    (rules_at ~rule:"determinism-taint" findings);
  match findings with
  | [ f ] ->
      Alcotest.(check string)
        "symbol is the sink-adjacent def" "Fix.log_time" f.Finding.symbol
  | _ -> Alcotest.fail "expected exactly one taint finding"

let test_taint_needs_sink () =
  let no_sink =
    {|
let now () = Sys.time ()
let fmt () = Printf.sprintf "%f" (now ())
|}
  in
  let ix = index_of [ ("Fix", "lib/fix/fix.ml", no_sink) ] in
  Alcotest.(check (list string))
    "a clock that never reaches a sink is quiet" []
    (rules_at ~rule:"determinism-taint" (Taint.report ~config:taint_config ix))

let test_taint_exempt_source () =
  let ix = index_of [ ("Fix", "lib/telemetry/fix.ml", taint_fixture) ] in
  let config =
    { taint_config with Taint.exempt_source = Taint.default_config.exempt_source }
  in
  Alcotest.(check (list string))
    "real-time telemetry files are exempt sources" []
    (rules_at ~rule:"determinism-taint" (Taint.report ~config ix))

(* ---- dead exports and the baseline ---- *)

let dead_impl = {|
let used x = x + 1
let unused x = x - 1
|}

let dead_intf = {|
val used : int -> int
val unused : int -> int
|}

let dead_index () =
  let ix = Index.load ~dirs:[] in
  Index.add_typed_source ix ~unit_name:"Fix_dead" ~file:"lib/fix/fix_dead.ml"
    ~source:dead_impl;
  Index.add_typed_interface ix ~unit_name:"Fix_dead"
    ~file:"lib/fix/fix_dead.mli" ~source:dead_intf;
  Index.note_unit_ref ix ~from_unit:"Fix_user" ~target:"Fix_dead.used";
  ix

let test_dead_export () =
  let t = Deep.prepare ~hot_roots:[] (dead_index ()) in
  let dead = rules_at ~rule:"dead-export" (Deep.findings t) in
  Alcotest.(check (list string))
    "only the unreferenced export fires, on the mli"
    [ "lib/fix/fix_dead.mli:3" ] dead

let test_baseline_round_trip () =
  let t = Deep.prepare ~hot_roots:[] (dead_index ()) in
  let findings = Deep.findings t in
  let path = Filename.temp_file "planck_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# comment\n\ndead-export Fix_dead.unused -- kept for the test\n";
      close_out oc;
      let entries =
        match Deep.load_baseline path with
        | Ok entries -> entries
        | Error e -> Alcotest.failf "baseline should parse: %s" e
      in
      let kept, baselined = Deep.apply_baseline entries findings in
      Alcotest.(check (list string))
        "baselined entry is absorbed" []
        (rules_at ~rule:"dead-export" kept);
      Alcotest.(check int) "one finding baselined" 1 (List.length baselined))

let test_baseline_malformed () =
  let path = Filename.temp_file "planck_lint_baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "dead-export NoJustification\n";
      close_out oc;
      match Deep.load_baseline path with
      | Ok _ -> Alcotest.fail "missing '--' must be rejected"
      | Error _ -> ())

(* ---- inline suppressions cover deep findings ---- *)

let test_suppression_covers_deep () =
  let source =
    "let id x = x\n\
     (* planck-lint: allow poly-compare -- fixture justification *)\n\
     let third_line = ()\n"
  in
  let deep_finding =
    Finding.v ~symbol:"Fix.third_line" ~rule:"poly-compare" ~severity:Finding.Error
      ~file:"lib/fix.ml" ~line:3 ~col:4 "typed finding from the deep tier"
  in
  let kept, suppressed =
    Engine.lint_source ~extra:[ deep_finding ] ~path:"lib/fix.ml" ~source ()
  in
  Alcotest.(check int) "deep finding suppressed by directive" 1
    (List.length suppressed);
  Alcotest.(check (list string))
    "nothing kept" []
    (rules_at ~rule:"poly-compare" kept)

let tests =
  [
    Alcotest.test_case "hot reachability closure" `Quick test_hot_reachability;
    Alcotest.test_case "hot set includes Heap.add (repo cmts)" `Quick
      test_hot_includes_heap_add;
    Alcotest.test_case "typed poly-compare" `Quick test_typed_poly_compare;
    Alcotest.test_case "typed float-equality" `Quick test_typed_float_equality;
    Alcotest.test_case "hot structural equality" `Quick
      test_hot_structural_equality;
    Alcotest.test_case "hot-alloc raise exemption" `Quick
      test_hot_alloc_raise_exempt;
    Alcotest.test_case "profiler span probe fires hot-alloc" `Quick
      test_profiler_span_probe;
    Alcotest.test_case "hot-schedule closure" `Quick test_hot_schedule;
    Alcotest.test_case "taint reaches sink" `Quick test_taint_reaches_sink;
    Alcotest.test_case "taint needs a sink" `Quick test_taint_needs_sink;
    Alcotest.test_case "taint exempts telemetry sources" `Quick
      test_taint_exempt_source;
    Alcotest.test_case "dead export" `Quick test_dead_export;
    Alcotest.test_case "baseline round trip" `Quick test_baseline_round_trip;
    Alcotest.test_case "baseline rejects malformed" `Quick
      test_baseline_malformed;
    Alcotest.test_case "suppressions cover deep findings" `Quick
      test_suppression_covers_deep;
  ]
