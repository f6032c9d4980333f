(* Scoped self-profiling spans. Disabled cost is one load+test of [on];
   enabled cost per span edge is one clock read, one [Gc.minor_words]
   read and a handful of int stores into a preallocated frame — no
   allocation at all. GC totals beyond minor words are read once per
   report ({!report}), not per span. *)

(* ---- clock ----

   Monotonic nanoseconds as an immediate int. The bechamel clock
   primitive is [@@noalloc] with an unboxed int64 result, so the
   composition with Int64.to_int stays allocation-free in native code.
   Tests swap in a deterministic counter via [set_clock]. *)

let real_clock () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let clock = Atomic.make real_clock

let set_clock = function
  | None -> Atomic.set clock real_clock
  | Some f -> Atomic.set clock f

(* ---- spans ---- *)

type t = {
  id : int;
  sp_name : string;
  sp_registry : Metrics.registry;
  h_span_ns : Metrics.histogram;
  c_self_ns : Metrics.counter;
  c_minor : Metrics.counter;
}

(* ---- span catalog ----

   The per-process registry of registered spans, replacing the former
   bare [all : t list ref] / [next_id] globals. Registration and
   catalog scans are cold paths (module init, bench setup, report
   rendering), so every field access holds [catalog_lock]; span ids
   start at 1 ([f_span = 0] marks a free frame below). *)

type catalog = { mutable spans : t list; mutable next_span_id : int }

let catalog_lock = Mutex.create ()
let catalog = { spans = []; next_span_id = 0 }

let spans () = Mutex.protect catalog_lock (fun () -> catalog.spans)

let reset () =
  Mutex.protect catalog_lock (fun () ->
      (* Toplevel handles registered at module init live in
         [Metrics.default] and cannot re-register; scoped-registry
         spans (bench micros, tests) are dropped with their registry. *)
      catalog.spans <-
        List.filter (fun t -> t.sp_registry == Metrics.default) catalog.spans)

let register ?(registry = Metrics.default) sp_name =
  Mutex.protect catalog_lock (fun () ->
      match
        List.find_opt
          (fun t -> t.sp_registry == registry && String.equal t.sp_name sp_name)
          catalog.spans
      with
      | Some t -> t
      | None ->
          let counter name =
            Metrics.counter ~registry ~subsystem:"profile" ~name ~label:sp_name
              ()
          in
          catalog.next_span_id <- catalog.next_span_id + 1;
          let t =
            {
              id = catalog.next_span_id;
              sp_name;
              sp_registry = registry;
              h_span_ns =
                Metrics.histogram ~registry ~subsystem:"profile" ~name:"span_ns"
                  ~label:sp_name ();
              c_self_ns = counter "self_ns";
              c_minor = counter "minor_words";
            }
          in
          catalog.spans <- t :: catalog.spans;
          t)

(* ---- frame stack ----

   All-int mutable records in a preallocated array: entering a span is
   int stores only. [f_span = 0] marks a free frame (span ids start at
   1). Child accumulators collect each nested span's inclusive totals
   so exit can compute exclusive (self) figures.

   The stack lives in [Domain.DLS]: each domain (the main loop, or a
   shard domain under the sharded engine) gets its own preallocated
   frames on first use, so concurrent spans never interleave across
   domains. The span metrics they feed are plain int fields, so under
   [--shards N>1] concurrent domains can lose each other's updates. *)

let max_depth = 64

type frame = {
  mutable f_span : int;
  mutable f_t0 : int;
  mutable f_minor0 : int;
  mutable f_child_ns : int;
  mutable f_child_minor : int;
}

type stack = { frames : frame array; mutable depth : int }

let new_stack () =
  {
    frames =
      Array.init max_depth (fun _ ->
          { f_span = 0; f_t0 = 0; f_minor0 = 0; f_child_ns = 0; f_child_minor = 0 });
    depth = 0;
  }

let stack_key : stack Domain.DLS.key = Domain.DLS.new_key new_stack

let on = Atomic.make false

let set_enabled v =
  Atomic.set on v;
  (Domain.DLS.get stack_key).depth <- 0

let enabled () = Atomic.get on

(* [Gc.minor_words] is an unboxed [@@noalloc] external: reading it
   allocates nothing, so it never charges the window it measures. *)
let[@inline] minor_words () = int_of_float (Gc.minor_words ())

let enter_enabled t =
  let s = Domain.DLS.get stack_key in
  if s.depth < max_depth then begin
    let f = s.frames.(s.depth) in
    s.depth <- s.depth + 1;
    f.f_span <- t.id;
    f.f_child_ns <- 0;
    f.f_child_minor <- 0;
    f.f_minor0 <- minor_words ();
    (* clock last: the span window excludes the bookkeeping above *)
    f.f_t0 <- (Atomic.get clock) ()
  end

let[@inline] enter t = if Atomic.get on then enter_enabled t

let[@inline] pos n = if n < 0 then 0 else n

(* Innermost open frame for span [id] at or below index [i], or -1.
   Toplevel, not a closure in [exit_enabled]: a closure would allocate
   inside the window of the span being closed. *)
let rec find_frame frames id i =
  if i < 0 then -1
  else if frames.(i).f_span = id then i
  else find_frame frames id (i - 1)

let exit_enabled t =
  (* clock first: the span window excludes the bookkeeping below *)
  let now = (Atomic.get clock) () in
  let s = Domain.DLS.get stack_key in
  let i = find_frame s.frames t.id (s.depth - 1) in
  if i >= 0 then begin
    (* Unwinding past i discards frames opened by spans that escaped by
       exception without exiting — they record nothing. *)
    let f = s.frames.(i) in
    s.depth <- i;
    let total_ns = now - f.f_t0 in
    let minor = minor_words () - f.f_minor0 in
    Metrics.Histogram.observe t.h_span_ns total_ns;
    Metrics.Counter.add t.c_self_ns (pos (total_ns - f.f_child_ns));
    Metrics.Counter.add t.c_minor (pos (minor - f.f_child_minor));
    if i > 0 then begin
      (* Charge this span's inclusive totals to the parent's child
         accumulators so the parent's exit reports exclusive figures. *)
      let p = s.frames.(i - 1) in
      p.f_child_ns <- p.f_child_ns + total_ns;
      p.f_child_minor <- p.f_child_minor + minor
    end
  end

let[@inline] exit t = if Atomic.get on then exit_enabled t

let with_span t f =
  enter t;
  match f () with
  | v ->
      exit t;
      v
  | exception e ->
      exit t;
      raise e

(* ---- reporting ---- *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_ns : int;
  r_self_ns : int;
  r_max_ns : int;
  r_minor_words : int;
}

let sort_rows rows =
  List.sort
    (fun a b ->
      match compare b.r_self_ns a.r_self_ns with
      | 0 -> String.compare a.r_name b.r_name
      | c -> c)
    rows

let summary ?(registry = Metrics.default) () =
  List.filter_map
    (fun t ->
      if t.sp_registry == registry then
        Some
          {
            r_name = t.sp_name;
            r_calls = Metrics.Histogram.count t.h_span_ns;
            r_total_ns = Metrics.Histogram.sum t.h_span_ns;
            r_self_ns = Metrics.Counter.value t.c_self_ns;
            r_max_ns = Metrics.Histogram.max_value t.h_span_ns;
            r_minor_words = Metrics.Counter.value t.c_minor;
          }
      else None)
    (spans ())
  |> sort_rows

(* Rebuild rows from the exported snapshot shape (Export.json_of_snapshot):
   entries keyed (subsystem, name, label); profile spans put the span
   name in [label] and the quantity in [name]. *)
let rows_of_metrics_json doc =
  let entries =
    match Json.member doc "metrics" with
    | Some m -> Json.to_list_opt m
    | None -> Json.to_list_opt doc
  in
  match entries with
  | None ->
      Error "not a metrics snapshot: expected {\"metrics\": [...]} or a list"
  | Some entries ->
      let tbl : (string, row) Hashtbl.t = Hashtbl.create 16 in
      let update label f =
        let zero =
          { r_name = label; r_calls = 0; r_total_ns = 0; r_self_ns = 0;
            r_max_ns = 0; r_minor_words = 0 }
        in
        let r = Option.value (Hashtbl.find_opt tbl label) ~default:zero in
        Hashtbl.replace tbl label (f r)
      in
      let str e key = Option.bind (Json.member e key) Json.to_string_opt in
      let int_field e key =
        Option.value ~default:0
          (Option.bind (Json.member e key) Json.to_int_opt)
      in
      List.iter
        (fun e ->
          match (str e "subsystem", str e "name", str e "label") with
          | Some "profile", Some "span_ns", Some label ->
              update label (fun r ->
                  {
                    r with
                    r_calls = int_field e "count";
                    r_total_ns = int_field e "sum";
                    r_max_ns = int_field e "max";
                  })
          | Some "profile", Some "self_ns", Some label ->
              update label (fun r -> { r with r_self_ns = int_field e "value" })
          | Some "profile", Some "minor_words", Some label ->
              update label (fun r ->
                  { r with r_minor_words = int_field e "value" })
          | _ -> ())
        entries;
      Ok (sort_rows (Hashtbl.fold (fun _ r acc -> r :: acc) tbl []))

let render rows =
  let total_self =
    List.fold_left (fun acc r -> acc + r.r_self_ns) 0 rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %10s %10s %6s %10s %10s\n" "span" "calls"
       "self-ms" "self%" "ns/call" "words/call");
  if rows = [] then
    Buffer.add_string buf
      "  (no profile spans recorded; run with --profile)\n"
  else
    List.iter
      (fun r ->
        let calls = if r.r_calls = 0 then 1 else r.r_calls in
        let share =
          if total_self = 0 then 0.0
          else 100.0 *. float_of_int r.r_self_ns /. float_of_int total_self
        in
        Buffer.add_string buf
          (Printf.sprintf "%-22s %10d %10.2f %5.1f%% %10.0f %10.1f\n" r.r_name
             r.r_calls
             (float_of_int r.r_self_ns /. 1e6)
             share
             (float_of_int r.r_total_ns /. float_of_int calls)
             (float_of_int r.r_minor_words /. float_of_int calls)))
      rows;
  Buffer.contents buf

(* Whole-run GC totals are read here, once per report, rather than on
   every span edge. *)
let report () =
  let st = Gc.quick_stat () in
  render (summary ())
  ^ Printf.sprintf
      "gc totals: %.0f promoted words, %.0f major words, %d minor / %d \
       major collections\n"
      st.Gc.promoted_words st.Gc.major_words st.Gc.minor_collections
      st.Gc.major_collections
