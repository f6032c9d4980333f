(* The self-profiling span layer: deterministic-clock nesting and
   self-time attribution, the disabled fast path (records nothing,
   allocates nothing), exception unwinding, frame-stack overflow
   safety, and round-tripping rows through the exported metrics
   snapshot. *)

module Metrics = Planck_telemetry.Metrics
module Profile = Planck_telemetry.Profile
module Export = Planck_telemetry.Export
module Json = Planck_telemetry.Json

let now = ref 0

(* Every enabled-path test runs under a deterministic clock and
   restores the global profiler state on the way out, so test order
   never matters. *)
let with_fake_clock f =
  Profile.set_clock (Some (fun () -> !now));
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.set_clock None)
    f

let row rows name =
  match List.find_opt (fun r -> String.equal r.Profile.r_name name) rows with
  | Some r -> r
  | None -> Alcotest.failf "no summary row for span %s" name

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* ---- nesting and self-time ---- *)

let test_nested_self_time () =
  let registry = Metrics.create ~enabled:true () in
  let outer = Profile.register ~registry "outer" in
  let inner = Profile.register ~registry "inner" in
  Alcotest.(check bool)
    "register dedups by (registry, name)" true
    (Profile.register ~registry "outer" == outer);
  with_fake_clock (fun () ->
      now := 0;
      Profile.enter outer;
      now := 100;
      Profile.enter inner;
      now := 400;
      Profile.exit inner;
      now := 1000;
      Profile.exit outer);
  let rows = Profile.summary ~registry () in
  let o = row rows "outer" and i = row rows "inner" in
  Alcotest.(check int) "inner calls" 1 i.Profile.r_calls;
  Alcotest.(check int) "inner total" 300 i.Profile.r_total_ns;
  Alcotest.(check int) "inner self = total (leaf)" 300 i.Profile.r_self_ns;
  Alcotest.(check int) "outer total is inclusive" 1000 o.Profile.r_total_ns;
  Alcotest.(check int)
    "outer self excludes the nested span" 700 o.Profile.r_self_ns;
  Alcotest.(check int) "outer max tracks the span" 1000 o.Profile.r_max_ns;
  match rows with
  | first :: _ ->
      Alcotest.(check string)
        "summary sorts by self time" "outer" first.Profile.r_name
  | [] -> Alcotest.fail "summary is empty"

let test_with_span () =
  let registry = Metrics.create ~enabled:true () in
  let span = Profile.register ~registry "scoped" in
  with_fake_clock (fun () ->
      now := 0;
      Alcotest.(check int)
        "with_span returns the body's value" 42
        (Profile.with_span span (fun () ->
             now := 25;
             42)));
  Alcotest.(check int)
    "span recorded" 25
    (row (Profile.summary ~registry ()) "scoped").Profile.r_total_ns

(* A span abandoned by an exception records nothing; the enclosing
   span's exit unwinds past it and the stack stays consistent for
   whatever comes next. *)
let test_exception_unwind () =
  let registry = Metrics.create ~enabled:true () in
  let outer = Profile.register ~registry "outer" in
  let abandoned = Profile.register ~registry "abandoned" in
  with_fake_clock (fun () ->
      now := 0;
      (try
         Profile.with_span outer (fun () ->
             now := 10;
             Profile.enter abandoned;
             now := 50;
             raise Stdlib.Exit)
       with Stdlib.Exit -> ());
      Profile.enter abandoned;
      now := 80;
      Profile.exit abandoned);
  let rows = Profile.summary ~registry () in
  let o = row rows "outer" and a = row rows "abandoned" in
  Alcotest.(check int) "outer still recorded" 1 o.Profile.r_calls;
  Alcotest.(check int)
    "outer window runs to the handler" 50 o.Profile.r_total_ns;
  Alcotest.(check int)
    "abandoned frame dropped, later span clean" 1 a.Profile.r_calls;
  Alcotest.(check int) "later span's own window" 30 a.Profile.r_total_ns

let test_depth_overflow () =
  let registry = Metrics.create ~enabled:true () in
  let span = Profile.register ~registry "deep" in
  with_fake_clock (fun () ->
      for _ = 1 to Profile.max_depth + 8 do
        Profile.enter span
      done;
      for _ = 1 to Profile.max_depth + 8 do
        Profile.exit span
      done);
  Alcotest.(check int)
    "frames beyond max_depth are dropped, extra exits are no-ops"
    Profile.max_depth
    (row (Profile.summary ~registry ()) "deep").Profile.r_calls

(* ---- the allocation-free paths ----

   Disabled, a span edge is one branch: it records nothing and
   allocates nothing. Enabled, it is one clock read and one
   [Gc.minor_words] read: after a warm-up, nested pairs allocate
   exactly nothing, so a span around allocation-free code reports 0
   words rather than charging the profiler's own bookkeeping. *)

let test_disabled_records_nothing () =
  let registry = Metrics.create ~enabled:true () in
  let cold = Profile.register ~registry "cold" in
  let outer = Profile.register ~registry "outer" in
  let inner = Profile.register ~registry "inner" in
  let minor_words () = int_of_float (Gc.minor_words ()) in
  let nested_pairs n =
    for _ = 1 to n do
      Profile.enter outer;
      Profile.enter inner;
      Profile.exit inner;
      Profile.exit outer
    done
  in
  Profile.set_enabled false;
  Alcotest.(check bool) "enabled reads back" false (Profile.enabled ());
  let w0 = minor_words () in
  for _ = 1 to 10_000 do
    Profile.enter cold;
    Profile.exit cold
  done;
  let words = minor_words () - w0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled spans allocate nothing (saw %d words)" words)
    true (words < 256);
  Alcotest.(check int)
    "disabled spans record nothing" 0
    (row (Profile.summary ~registry ()) "cold").Profile.r_calls;
  Fun.protect
    ~finally:(fun () -> Profile.set_enabled false)
    (fun () ->
      Profile.set_enabled true;
      (* warm-up: first use of this domain's frame stack allocates it *)
      nested_pairs 1;
      let w0 = minor_words () in
      nested_pairs 10_000;
      Alcotest.(check int)
        "10 000 enabled nested pairs allocate nothing" 0
        (minor_words () - w0));
  let rows = Profile.summary ~registry () in
  Alcotest.(check int)
    "enabled pairs recorded" 10_001 (row rows "outer").Profile.r_calls;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " around allocation-free code reports 0 words")
        0 (row rows name).Profile.r_minor_words)
    [ "outer"; "inner" ]

(* ---- snapshot round trip ---- *)

let test_rows_from_metrics_json () =
  let registry = Metrics.create ~enabled:true () in
  let io = Profile.register ~registry "io" in
  let cpu = Profile.register ~registry "cpu" in
  with_fake_clock (fun () ->
      now := 0;
      Profile.enter io;
      now := 500;
      Profile.exit io;
      Profile.enter cpu;
      now := 800;
      Profile.exit cpu);
  match Profile.rows_of_metrics_json (Export.metrics_to_json registry) with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      let direct = Profile.summary ~registry () in
      Alcotest.(check int)
        "same rows as the live summary" (List.length direct) (List.length rows);
      List.iter2
        (fun (a : Profile.row) (b : Profile.row) ->
          Alcotest.(check string) "name" a.r_name b.r_name;
          Alcotest.(check int) "calls" a.r_calls b.r_calls;
          Alcotest.(check int) "total" a.r_total_ns b.r_total_ns;
          Alcotest.(check int) "self" a.r_self_ns b.r_self_ns;
          Alcotest.(check int) "max" a.r_max_ns b.r_max_ns;
          Alcotest.(check int) "minor" a.r_minor_words b.r_minor_words)
        direct rows;
      (* Snapshots written before the per-span GC counters were dropped
         still carry them; they are ignored, not an error. *)
      let old_counter name =
        Json.Obj
          [
            ("subsystem", Json.String "profile");
            ("name", Json.String name);
            ("label", Json.String "io");
            ("kind", Json.String "counter");
            ("value", Json.Int 7);
          ]
      in
      let old_snapshot =
        match Export.metrics_to_json registry with
        | Json.Obj [ ("metrics", Json.List entries) ] ->
            Json.Obj
              [
                ( "metrics",
                  Json.List
                    (entries
                    @ List.map old_counter
                        [
                          "promoted_words";
                          "major_words";
                          "minor_collections";
                          "major_collections";
                        ]) );
              ]
        | _ -> Alcotest.fail "unexpected metrics snapshot shape"
      in
      match Profile.rows_of_metrics_json old_snapshot with
      | Error e -> Alcotest.fail e
      | Ok old_rows ->
          Alcotest.(check bool)
            "old snapshot rows equal the live rows" true (direct = old_rows)

let test_rows_rejects_non_snapshot () =
  match Profile.rows_of_metrics_json (Json.String "nope") with
  | Ok _ -> Alcotest.fail "a bare string is not a metrics snapshot"
  | Error _ -> ()

let test_render () =
  let registry = Metrics.create ~enabled:true () in
  let span = Profile.register ~registry "render-me" in
  with_fake_clock (fun () ->
      now := 0;
      Profile.enter span;
      now := 2_000_000;
      Profile.exit span);
  let report = Profile.render (Profile.summary ~registry ()) in
  Alcotest.(check bool)
    "report names the span" true
    (contains ~needle:"render-me" report);
  Alcotest.(check bool)
    "empty report says how to get one" true
    (contains ~needle:"--profile" (Profile.render []))

let test_reset_drops_scoped_spans () =
  let registry = Metrics.create ~enabled:true () in
  let scoped = Profile.register ~registry "resettable" in
  with_fake_clock (fun () ->
      now := 0;
      Profile.enter scoped;
      now := 10;
      Profile.exit scoped);
  Alcotest.(check int)
    "scoped span visible before reset" 1
    (List.length (Profile.summary ~registry ()));
  Profile.reset ();
  Alcotest.(check int)
    "scoped span dropped by reset" 0
    (List.length (Profile.summary ~registry ()));
  Alcotest.(check bool)
    "default-registry toplevel handles survive reset" true
    (Profile.register "reset-survivor" == Profile.register "reset-survivor")

(* Setup: clear scoped-registry spans leaked by any earlier test before
   this one registers its own, so test order never matters. *)
let test_case name speed f =
  Alcotest.test_case name speed (fun () ->
      Profile.reset ();
      f ())

let tests =
  [
    test_case "nested spans attribute self time" `Quick test_nested_self_time;
    test_case "reset drops scoped-registry spans" `Quick
      test_reset_drops_scoped_spans;
    test_case "with_span brackets and returns" `Quick test_with_span;
    test_case "exception unwinds abandoned frames" `Quick test_exception_unwind;
    test_case "frame-stack overflow is safe" `Quick test_depth_overflow;
    test_case "disabled path records and allocates nothing" `Quick
      test_disabled_records_nothing;
    test_case "rows round-trip via metrics JSON" `Quick
      test_rows_from_metrics_json;
    test_case "non-snapshot JSON rejected" `Quick test_rows_rejects_non_snapshot;
    test_case "render report" `Quick test_render;
  ]
