(* End-to-end benchmark worker: runs one workload once through
   [Planck.Experiment.run] in this process and prints one JSON object of
   raw measurements on stdout. run.py starts a fresh process per run,
   because [top_heap_words] is a process-wide high-water mark.

   Everything is measured from outside the simulator: timestamps come
   from an [Experiment.set_observer] hook that returns [None] (so the
   run is unchanged), counts from each layer's public counters reached
   through the [Testbed.t] / [Scheme.deployed] handles the hook
   receives, allocation from [Gc.quick_stat].

   Usage: worker.exe WORKLOAD SEED (run | trace)
   - [run]: the measured, untraced run;
   - [trace]: times [Testbed.create] and [Scheme.deploy] directly, then
     runs the workload again with the existing [Profile] spans and the
     default [Metrics] registry enabled, and adds the span rows. *)

module Experiment = Planck.Experiment
module Testbed = Planck.Testbed
module Scheme = Planck.Scheme
module Engine = Planck.Netsim.Engine
module Switch = Planck.Netsim.Switch
module Shard = Planck.Netsim.Shard
module Fabric = Planck.Topology.Fabric
module Fat_tree = Planck.Topology.Fat_tree
module Collector = Planck.Collector_lib.Collector
module Controller = Planck.Controller_lib.Controller
module Te = Planck.Controller_lib.Te
module Runner = Planck.Workloads.Runner
module Generate = Planck.Workloads.Generate
module Metrics = Planck.Telemetry.Metrics
module Profile = Planck.Telemetry.Profile
module Time = Planck.Util.Time

(* ---- workloads (README.md says why each exists) ---- *)

type workload = {
  spec : Testbed.spec;
  scheme : Scheme.t;
  flow_table : Scheme.flow_table;
  workload : Experiment.workload;
  size : int;
}

let mib n = n * 1024 * 1024

let workload_of_name name ~seed =
  let k4 = { Testbed.default_spec with Testbed.seed } in
  match name with
  | "te-stride8" ->
      Some
        {
          spec = k4;
          scheme = Scheme.planck_te_default;
          flow_table = Scheme.Exact;
          workload = Experiment.Stride 8;
          size = mib 4;
        }
  | "static-stride8" ->
      Some
        {
          spec = k4;
          scheme = Scheme.Static;
          flow_table = Scheme.Exact;
          workload = Experiment.Stride 8;
          size = mib 4;
        }
  | "churn-mice" ->
      Some
        {
          spec = k4;
          scheme = Scheme.planck_te_default;
          flow_table = Scheme.tiered_default;
          workload =
            Experiment.Churn
              { Generate.default_churn with flows = 5_000; elephant_every = 0 };
          (* churn takes its flow sizes from the spec *)
          size = 1;
        }
  | "fabric-k16-sharded" ->
      Some
        {
          spec =
            {
              k4 with
              Testbed.topology = Testbed.Fat_tree { k = 16 };
              alts = Some 4;
              shards = Some 2;
              core_prop_delay = Some Fat_tree.default_core_prop_delay;
            };
          scheme = Scheme.Static;
          flow_table = Scheme.Exact;
          workload = Experiment.Stride 512;
          size = 16 * 1024;
        }
  | _ -> None

(* ---- measurement helpers ---- *)

(* monotonic, nanosecond resolution *)
let now () = Int64.to_float (Monotonic_clock.clock_linux_get_time ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words allocated by the program, all domains included: quick_stat
   folds in the counts of domains that have terminated, which the
   shard domains have by the time [Experiment.run] returns. *)
let allocated (s : Gc.stat) =
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Calibration probe: a fixed CPU-and-allocation loop, reported beside
   each run so machine speed changes can be told from regressions. *)
let probe_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 1_500_000 do
    let cell = Sys.opaque_identity (Array.make 4 i) in
    acc := !acc lxor (cell.(i land 3) * 0x9E3779B1)
  done;
  ignore (Sys.opaque_identity !acc : int);
  (now () -. t0) *. 1000.

let engines (tb : Testbed.t) =
  match tb.Testbed.shard with
  | None -> [ tb.Testbed.engine ]
  | Some g -> List.init (Shard.shards g) (Shard.engine g)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let switches (tb : Testbed.t) =
  let fabric = tb.Testbed.fabric in
  List.init (Fabric.switch_count fabric) (Fabric.switch fabric)

let total_routes tb = sum Switch.route_count (switches tb)

(* Frames sent by every switch port, and those sent on a cable whose
   far end is on another shard. *)
let switch_frames (tb : Testbed.t) =
  let fabric = tb.Testbed.fabric in
  let total = ref 0 and cross = ref 0 in
  for s = 0 to Fabric.switch_count fabric - 1 do
    let sw = Fabric.switch fabric s in
    for port = 0 to Fabric.switch_ports fabric - 1 do
      let tx = (Switch.port_stats sw ~port).Switch.tx_packets in
      total := !total + tx;
      match Fabric.peer fabric ~switch:s ~port with
      | Fabric.To_switch (peer, _)
        when Fabric.shard_of_switch fabric peer
             <> Fabric.shard_of_switch fabric s ->
          cross := !cross + tx
      | Fabric.To_switch _ | Fabric.To_host _ | Fabric.To_monitor
      | Fabric.Unwired ->
          ()
    done
  done;
  (!total, !cross)

let segments_of_size size = (size + 1459) / 1460

(* The results a same-seed rerun must reproduce exactly. *)
let digest (s : Experiment.summary) events =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%.17g|%d|%d" s.Experiment.avg_goodput_gbps
    s.Experiment.reroutes events;
  List.iter
    (fun (r : Runner.flow_result) ->
      match r.Runner.finish_time with
      | Some t -> Printf.bprintf b "|%d" t
      | None -> Buffer.add_string b "|-")
    s.Experiment.flows;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- JSON output ---- *)

type field = Int of int | Float of float | Str of string | Raw of string

let json fields =
  let item (k, v) =
    let v =
      match v with
      | Int i -> string_of_int i
      | Float f -> Printf.sprintf "%.17g" f
      | Str s -> Printf.sprintf "%S" s
      | Raw r -> r
    in
    Printf.sprintf "%S: %s" k v
  in
  "{" ^ String.concat ", " (List.map item fields) ^ "}"

(* ---- one run ---- *)

type observed = {
  testbed : Testbed.t;
  deployed : Scheme.deployed;
  at : float;
  gc_at : Gc.stat;
  cpu_at : float;
  events_at : int list;
}

type finished = {
  summary : Experiment.summary;
  obs : observed;
  started : float;
  ended : float;
  cpu_end : float;
  gc_start : Gc.stat;
  gc_end : Gc.stat;
}

let observed : observed option ref = ref None

(* Runs [w] through [Experiment.run]; [on_observe] runs inside the hook
   after the observer timestamp is taken. *)
let run_once w ~on_observe =
  observed := None;
  Experiment.set_observer
    (Some
       (fun testbed deployed ->
         let at = now () in
         (* flush this domain's minor heap so quick_stat counts it *)
         Gc.minor ();
         let gc_at = Gc.quick_stat () in
         let cpu_at = cpu_s () in
         let events_at = List.map Engine.events_processed (engines testbed) in
         observed := Some { testbed; deployed; at; gc_at; cpu_at; events_at };
         on_observe ();
         None));
  Gc.minor ();
  let gc_start = Gc.quick_stat () in
  let started = now () in
  let summary =
    Experiment.run ~spec:w.spec ~scheme:w.scheme ~workload:w.workload
      ~size:w.size ~flow_table:w.flow_table ()
  in
  let ended = now () in
  let cpu_end = cpu_s () in
  Gc.minor ();
  let gc_end = Gc.quick_stat () in
  Experiment.set_observer None;
  match !observed with
  | None -> failwith "observer did not fire"
  | Some obs -> { summary; obs; started; ended; cpu_end; gc_start; gc_end }

(* Events each engine dispatched after the observer fired. *)
let sim_events obs =
  List.map2
    (fun e at -> Engine.events_processed e - at)
    (engines obs.testbed) obs.events_at

let run_fields w =
  let probe = probe_ms () in
  let { summary; obs; started; ended; cpu_end; gc_start; gc_end } =
    run_once w ~on_observe:ignore
  in
  let tb = obs.testbed in
  let engs = engines tb in
  let per_engine = sim_events obs in
  let events = List.fold_left ( + ) 0 per_engine in
  let flows = summary.Experiment.flows in
  let completed = List.filter (fun r -> r.Runner.completed) flows in
  let frames, cross_frames = switch_frames tb in
  let sws = switches tb in
  let collectors =
    match obs.deployed.Scheme.controller with
    | None -> []
    | Some c -> Controller.collectors c
  in
  let te f = match obs.deployed.Scheme.te with None -> 0 | Some t -> f t in
  let lookahead =
    match tb.Testbed.shard with
    | None -> 0
    | Some g -> Option.value (Shard.lookahead g) ~default:0
  in
  let gc_at = obs.gc_at in
  [
    ("setup_s", Float (obs.at -. started));
    ("wall_s", Float (ended -. obs.at));
    ("probe_ms", Float probe);
    ("flows", Int (List.length flows));
    ("completed", Int (List.length completed));
    ("segments", Int (sum (fun r -> segments_of_size r.Runner.size) completed));
    ("avg_goodput_gbps", Float summary.Experiment.avg_goodput_gbps);
    ("reroutes", Int summary.Experiment.reroutes);
    ("events", Int events);
    ("digest", Str (digest summary events));
    ( "engine_events",
      Raw
        ("[" ^ String.concat ", " (List.map string_of_int per_engine) ^ "]")
    );
    ( "pending_max",
      Int (List.fold_left max 0 (List.map Engine.max_pending engs)) );
    ("timers_cancelled", Int (sum Engine.timers_cancelled engs));
    ("compactions", Int (sum Engine.compactions engs));
    ("setup_words", Float (allocated gc_at -. allocated gc_start));
    ("sim_words", Float (allocated gc_end -. allocated gc_at));
    ( "promoted_words",
      Float (gc_end.Gc.promoted_words -. gc_at.Gc.promoted_words) );
    ( "minor_collections",
      Int (gc_end.Gc.minor_collections - gc_at.Gc.minor_collections) );
    ( "major_collections",
      Int (gc_end.Gc.major_collections - gc_at.Gc.major_collections) );
    ("top_heap_words", Int gc_end.Gc.top_heap_words);
    ("cpu_s", Float (cpu_end -. obs.cpu_at));
    ("routes", Int (total_routes tb));
    ("frames", Int frames);
    ("cross_frames", Int cross_frames);
    ("data_drops", Int (sum Switch.total_data_drops sws));
    ("mirror_drops", Int (sum Switch.total_mirror_drops sws));
    ("samples", Int (sum Collector.samples_seen collectors));
    ("data_samples", Int (sum Collector.data_samples collectors));
    ("flows_tracked", Int (sum Collector.flows_tracked collectors));
    ("parse_errors", Int (sum Collector.parse_errors collectors));
    ("te_notifications", Int (te Te.notifications));
    ("te_reroutes", Int (te Te.reroutes));
    ("retransmits", Int (sum (fun r -> r.Runner.retransmits) flows));
    ("timeouts", Int (sum (fun r -> r.Runner.timeouts) flows));
    ("sim_time_s", Float (Time.to_float_s (Engine.now tb.Testbed.engine)));
    ("lookahead_s", Float (Time.to_float_s lookahead));
    ("domains", Int (List.length engs));
  ]

(* ---- the traced run ---- *)

let registry_total ~subsystem ~name ?label () =
  List.fold_left
    (fun acc (m : Metrics.snapshot) ->
      let label_ok =
        match label with None -> true | Some l -> String.equal l m.Metrics.label
      in
      if String.equal m.Metrics.subsystem subsystem
         && String.equal m.Metrics.name name && label_ok
      then
        match m.Metrics.value with
        | Metrics.Counter_value v -> acc + v
        | Metrics.Gauge_value _ | Metrics.Histogram_value _ -> acc
      else acc)
    0 (Metrics.snapshot Metrics.default)

let setup_times w =
  let t0 = now () in
  let tb = Testbed.create w.spec in
  let t1 = now () in
  let (_ : Scheme.deployed) =
    Scheme.deploy ~flow_table:w.flow_table tb w.scheme
  in
  let t2 = now () in
  (t1 -. t0, t2 -. t1)

let trace_fields w =
  let create_s, deploy_s = setup_times w in
  Gc.compact ();
  Profile.reset ();
  Metrics.reset Metrics.default;
  let enable on =
    Metrics.set_enabled Metrics.default on;
    Profile.set_enabled on
  in
  let r = run_once w ~on_observe:(fun () -> enable true) in
  enable false;
  let events = List.fold_left ( + ) 0 (sim_events r.obs) in
  let span (row : Profile.row) =
    json
      [
        ("name", Str row.Profile.r_name);
        ("calls", Int row.Profile.r_calls);
        ("self_ns", Int row.Profile.r_self_ns);
        ("minor_words", Int row.Profile.r_minor_words);
      ]
  in
  [
    ("create_s", Float create_s);
    ("deploy_s", Float deploy_s);
    ("traced_wall_s", Float (r.ended -. r.obs.at));
    ("traced_digest", Str (digest r.summary events));
    ("traced_events", Int events);
    ( "registry_events",
      Int
        (registry_total ~subsystem:"engine" ~name:"events_processed" ~label:""
           ()) );
    ( "ring_drops",
      Int (registry_total ~subsystem:"sink" ~name:"ring_drops" ()) );
    ( "spans",
      Raw
        ("["
        ^ String.concat ", " (List.map span (Profile.summary ()))
        ^ "]") );
  ]

let () =
  match Sys.argv with
  | [| _; name; seed; mode |] -> (
      match (workload_of_name name ~seed:(int_of_string seed), mode) with
      | Some w, "run" ->
          print_endline (json (("workload", Str name) :: run_fields w))
      | Some w, "trace" ->
          print_endline (json (("workload", Str name) :: trace_fields w))
      | None, _ ->
          prerr_endline ("worker: unknown workload " ^ name);
          exit 2
      | Some _, _ ->
          prerr_endline ("worker: unknown mode " ^ mode);
          exit 2)
  | _ ->
      prerr_endline "usage: worker.exe WORKLOAD SEED (run | trace)";
      exit 2
