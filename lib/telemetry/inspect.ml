module Time = Planck_util.Time

type loop = {
  corr : int;
  flow : string option;
  detect : Time.t;
  notify : Time.t option;
  decide : Time.t option;
  install : Time.t option;
  effective : Time.t option;
}

let complete l =
  l.flow <> None && l.notify <> None && l.decide <> None && l.install <> None
  && l.effective <> None

let total l =
  match l.effective with Some e when complete l -> Some (e - l.detect) | _ -> None

(* Rebuilding loops is a fold over the journal keyed on (corr, flow):
   detect/notify belong to the corr as a whole; decide/install/effective
   are per rerouted flow. Each stage keeps its earliest stamp so a
   duplicate event (e.g. a retransmitted sample matching the effective
   watch twice) cannot shrink a leg. *)
let loops events =
  let corrs = Hashtbl.create 16 in (* corr -> detect, notify *)
  let by_flow = Hashtbl.create 16 in (* corr * flow -> decide/install/effective *)
  let rerouted = Hashtbl.create 16 in (* corrs with at least one by_flow key *)
  let order = ref [] in
  let first old ts = match old with None -> Some ts | Some t -> Some (min t ts) in
  let touch_corr corr f =
    let detect, notify =
      match Hashtbl.find_opt corrs corr with
      | Some dn -> dn
      | None ->
          order := `Corr corr :: !order;
          (None, None)
    in
    Hashtbl.replace corrs corr (f (detect, notify))
  in
  let touch_flow corr flow f =
    let key = (corr, flow) in
    let entry =
      match Hashtbl.find_opt by_flow key with
      | Some e -> e
      | None ->
          order := `Flow key :: !order;
          Hashtbl.replace rerouted corr ();
          (None, None, None)
    in
    Hashtbl.replace by_flow key (f entry)
  in
  List.iter
    (fun (ev : Journal.event) ->
      match (ev.Journal.corr, ev.Journal.body) with
      | Some corr, Journal.Congestion_detected _ ->
          touch_corr corr (fun (d, n) -> (first d ev.ts, n))
      | Some corr, Journal.Controller_notified _ ->
          touch_corr corr (fun (d, n) -> (d, first n ev.ts))
      | Some corr, Journal.Reroute_decision { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (first dc ev.ts, i, e))
      | Some corr, Journal.Reroute_install { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (dc, first i ev.ts, e))
      | Some corr, Journal.Reroute_effective { flow; _ } ->
          touch_flow corr flow (fun (dc, i, e) -> (dc, i, first e ev.ts))
      | _ -> ())
    events;
  (* One loop per (corr, flow); corrs that never decided still show up
     (flow = None) so inspect can report loops that went nowhere. *)
  let ls =
    List.filter_map
      (function
        | `Flow (corr, flow) ->
            let detect, notify =
              Option.value (Hashtbl.find_opt corrs corr) ~default:(None, None)
            in
            let decide, install, effective =
              Option.value
                (Hashtbl.find_opt by_flow (corr, flow))
                ~default:(None, None, None)
            in
            Option.map
              (fun detect ->
                { corr; flow = Some flow; detect; notify; decide; install;
                  effective })
              detect
        | `Corr corr -> (
            if Hashtbl.mem rerouted corr then None
            else
              match Hashtbl.find_opt corrs corr with
              | Some (Some detect, notify) ->
                  Some
                    { corr; flow = None; detect; notify; decide = None;
                      install = None; effective = None }
              | _ -> None))
      (List.rev !order)
  in
  List.stable_sort
    (fun a b ->
      match Int.compare a.detect b.detect with
      | 0 -> Int.compare a.corr b.corr
      | c -> c)
    ls

(* The timeline legs as (name, start stage, end stage): the four
   inter-stage legs plus the total, in timeline order. *)
let legs =
  [
    ("detect->notify", (fun l -> Some l.detect), fun l -> l.notify);
    ("notify->decide", (fun l -> l.notify), fun l -> l.decide);
    ("decide->install", (fun l -> l.decide), fun l -> l.install);
    ("install->effective", (fun l -> l.install), fun l -> l.effective);
    ("detect->effective", (fun l -> Some l.detect), fun l -> l.effective);
  ]

(* A leg is recorded when both of its stages are. *)
let leg_span l (_, start, stop) =
  match (start l, stop l) with Some a, Some b -> Some (a, b) | _ -> None

let stage_durations ls =
  let complete_loops = List.filter complete ls in
  List.map
    (fun ((name, _, _) as leg) ->
      ( name,
        List.filter_map
          (fun l ->
            Option.map
              (fun (a, b) -> Time.to_float_ms (b - a))
              (leg_span l leg))
          complete_loops ))
    legs

(* ---- Chrome trace_event view ---- *)

(* trace_event timestamps are microseconds as doubles; integer
   nanoseconds up to ~104 days stay exact after /1000 in a double, so
   stamps round-trip through the JSON. *)
let us ns = Json.Float (float_of_int ns /. 1000.0)

let chrome_trace events =
  (* Each record is (ts, dur, cat, fields); journal events are instants
     (dur 0) on track 0 of their source's process. *)
  let instants =
    List.map
      (fun (ev : Journal.event) ->
        let args =
          match Journal.event_to_json ev with
          | Json.Obj fields ->
              List.filter
                (fun (k, _) -> k <> "ts" && k <> "src" && k <> "ev")
                fields
          | _ -> []
        in
        ( ev.Journal.ts,
          0,
          Journal.source_of_body ev.Journal.body,
          [
            ("name", Json.String (Journal.name_of_body ev.Journal.body));
            ("ph", Json.String "i");
            ("tid", Json.Int 0);
            ("args", Json.Obj args);
          ] ))
      events
  in
  (* Each loop is a complete slice from detect to its last recorded
     stage, with one nested slice per recorded leg. Loops of one
     congestion event share a correlation id and overlap, so each loop
     gets its own track: its 1-based rank in [loops] order. *)
  let slices =
    List.concat
      (List.mapi
         (fun i l ->
           let last =
             List.fold_left
               (fun acc stage -> Option.value stage ~default:acc)
               l.detect
               [ l.notify; l.decide; l.install; l.effective ]
           in
           let slice name (a, b) =
             ( a,
               b - a,
               "control_loop",
               [
                 ("name", Json.String name);
                 ("ph", Json.String "X");
                 ("dur", us (b - a));
                 ("tid", Json.Int (i + 1));
                 ( "args",
                   Json.Obj
                     [
                       ("corr", Json.Int l.corr);
                       ( "flow",
                         match l.flow with
                         | Some f -> Json.String f
                         | None -> Json.Null );
                     ] );
               ] )
           in
           slice "control_loop" (l.detect, last)
           :: List.filter_map
                (fun ((name, _, _) as leg) ->
                  Option.map (slice name) (leg_span l leg))
                legs)
         (loops events))
  in
  (* Ascending timestamps; at equal stamps the longer slice first, so
     a leg that starts with its loop nests inside it. *)
  let records =
    List.stable_sort
      (fun (ta, da, _, _) (tb, db, _, _) ->
        match Int.compare ta tb with 0 -> Int.compare db da | c -> c)
      (slices @ instants)
  in
  (* Each category renders as its own process, numbered by first
     appearance and named by an M-phase process_name record, so the
     viewer groups tracks by subsystem. *)
  let cats =
    List.fold_left
      (fun cats (_, _, cat, _) -> if List.mem cat cats then cats else cat :: cats)
      [] records
    |> List.rev
  in
  let pids = List.mapi (fun i cat -> (cat, i + 1)) cats in
  let metadata =
    List.map
      (fun (cat, pid) ->
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.String cat) ]);
          ])
      pids
  in
  let record (ts, _, cat, fields) =
    Json.Obj
      (("cat", Json.String cat)
      :: ("ts", us ts)
      :: ("pid", Json.Int (List.assoc cat pids))
      :: fields)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (metadata @ List.map record records));
         ("displayTimeUnit", Json.String "ns");
       ])

let desc_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Int.compare b a with 0 -> String.compare ka kb | c -> c)

let flap_counts events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Journal.event) ->
      match ev.Journal.body with
      | Journal.Reroute_decision { flow; _ } ->
          Hashtbl.replace tbl flow
            (1 + Option.value (Hashtbl.find_opt tbl flow) ~default:0)
      | _ -> ())
    events;
  desc_counts tbl

let count_events events =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Journal.event) ->
      let name = Journal.name_of_body ev.Journal.body in
      Hashtbl.replace tbl name
        (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0))
    events;
  desc_counts tbl

let estimate_errors ~names ~rows =
  let index name =
    let rec go i = function
      | [] -> None
      | n :: _ when n = name -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 names
  in
  let flows =
    List.filter_map
      (fun n ->
        if String.length n > 5 && String.sub n 0 5 = "true:" then
          Some (String.sub n 5 (String.length n - 5))
        else None)
      names
  in
  List.filter_map
    (fun flow ->
      match (index ("true:" ^ flow), index ("est:" ^ flow)) with
      | Some ti, Some ei ->
          let truth, est =
            List.fold_left
              (fun (truth, est) (_, row) ->
                if ti < Array.length row && ei < Array.length row then
                  let tv = row.(ti) and ev = row.(ei) in
                  if tv > 0.05 && Float.is_finite ev then
                    (tv :: truth, ev :: est)
                  else (truth, est)
                else (truth, est))
              ([], []) rows
          in
          if truth = [] then None
          else
            Some (flow, Planck_util.Stats.mean_relative_error ~truth ~estimate:est)
      | _ -> None)
    flows
