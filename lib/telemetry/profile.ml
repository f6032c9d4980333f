(* Scoped self-profiling spans. Disabled cost is one load+test of [on];
   enabled cost is two clock reads, two [Gc.quick_stat]s, and a handful
   of int stores into a preallocated frame — no allocation besides the
   stat records, whose words are metered and subtracted (see the
   self-words ledger below). *)

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

(* ---- self-words ledger ----

   [Gc.quick_stat] allocates its stat record. Every profiler-internal
   allocation is bracketed between two [Gc.minor_words] reads (which
   are [@@noalloc]) and accumulated here; span word counts read the
   minor-words counter *net* of this ledger, so nesting quick_stat
   calls inside a measured window does not charge the window. *)

let self_words = Atomic.make 0

let[@inline] minor_words_net () =
  int_of_float (Gc.minor_words ()) - Atomic.get self_words

let quick_stat () =
  let before = Gc.minor_words () in
  let st = Gc.quick_stat () in
  let after = Gc.minor_words () in
  ignore (Atomic.fetch_and_add self_words (int_of_float (after -. before)) : int);
  st

(* ---- spans ---- *)

type t = {
  id : int;
  sp_name : string;
  sp_registry : Metrics.registry;
  h_span_ns : Metrics.histogram;
  c_self_ns : Metrics.counter;
  c_minor : Metrics.counter;
  c_promoted : Metrics.counter;
  c_major : Metrics.counter;
  c_minor_coll : Metrics.counter;
  c_major_coll : Metrics.counter;
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
              c_promoted = counter "promoted_words";
              c_major = counter "major_words";
              c_minor_coll = counter "minor_collections";
              c_major_coll = counter "major_collections";
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
   domains. The span metrics they feed are Atomic counters, so the
   per-domain self/GC figures still aggregate into one catalog. *)

let max_depth = 64

type frame = {
  mutable f_span : int;
  mutable f_t0 : int;
  mutable f_minor0 : int;
  mutable f_promoted0 : int;
  mutable f_major0 : int;
  mutable f_minor_coll0 : int;
  mutable f_major_coll0 : int;
  mutable f_child_ns : int;
  mutable f_child_minor : int;
  mutable f_child_promoted : int;
  mutable f_child_major : int;
  mutable f_child_minor_coll : int;
  mutable f_child_major_coll : int;
}

type stack = { frames : frame array; mutable depth : int }

let new_stack () =
  {
    frames =
      Array.init max_depth (fun _ ->
          {
            f_span = 0;
            f_t0 = 0;
            f_minor0 = 0;
            f_promoted0 = 0;
            f_major0 = 0;
            f_minor_coll0 = 0;
            f_major_coll0 = 0;
            f_child_ns = 0;
            f_child_minor = 0;
            f_child_promoted = 0;
            f_child_major = 0;
            f_child_minor_coll = 0;
            f_child_major_coll = 0;
          });
    depth = 0;
  }

let stack_key : stack Domain.DLS.key = Domain.DLS.new_key new_stack

let on = Atomic.make false

let set_enabled v =
  Atomic.set on v;
  (Domain.DLS.get stack_key).depth <- 0

let enabled () = Atomic.get on

let enter_enabled t =
  let s = Domain.DLS.get stack_key in
  if s.depth < max_depth then begin
    let f = s.frames.(s.depth) in
    s.depth <- s.depth + 1;
    f.f_span <- t.id;
    f.f_child_ns <- 0;
    f.f_child_minor <- 0;
    f.f_child_promoted <- 0;
    f.f_child_major <- 0;
    f.f_child_minor_coll <- 0;
    f.f_child_major_coll <- 0;
    let st = quick_stat () in
    f.f_promoted0 <- int_of_float st.Gc.promoted_words;
    f.f_major0 <- int_of_float st.Gc.major_words;
    f.f_minor_coll0 <- st.Gc.minor_collections;
    f.f_major_coll0 <- st.Gc.major_collections;
    f.f_minor0 <- minor_words_net ();
    (* clock last: the span window excludes the bookkeeping above *)
    f.f_t0 <- (Atomic.get clock) ()
  end

let[@inline] enter t = if Atomic.get on then enter_enabled t

let[@inline] pos n = if n < 0 then 0 else n

let exit_enabled t =
  (* clock first: the span window excludes the bookkeeping below *)
  let now = (Atomic.get clock) () in
  let s = Domain.DLS.get stack_key in
  let rec find i =
    if i < 0 then -1 else if s.frames.(i).f_span = t.id then i else find (i - 1)
  in
  let i = find (s.depth - 1) in
  if i >= 0 then begin
    (* Unwinding past i discards frames opened by spans that escaped by
       exception without exiting — they record nothing. *)
    let f = s.frames.(i) in
    s.depth <- i;
    let minor_now = minor_words_net () in
    let st = quick_stat () in
    let total_ns = now - f.f_t0 in
    let minor = minor_now - f.f_minor0 in
    let promoted = int_of_float st.Gc.promoted_words - f.f_promoted0 in
    let major = int_of_float st.Gc.major_words - f.f_major0 in
    let minor_coll = st.Gc.minor_collections - f.f_minor_coll0 in
    let major_coll = st.Gc.major_collections - f.f_major_coll0 in
    Metrics.Histogram.observe t.h_span_ns total_ns;
    Metrics.Counter.add t.c_self_ns (pos (total_ns - f.f_child_ns));
    Metrics.Counter.add t.c_minor (pos (minor - f.f_child_minor));
    Metrics.Counter.add t.c_promoted (pos (promoted - f.f_child_promoted));
    Metrics.Counter.add t.c_major (pos (major - f.f_child_major));
    Metrics.Counter.add t.c_minor_coll (pos (minor_coll - f.f_child_minor_coll));
    Metrics.Counter.add t.c_major_coll (pos (major_coll - f.f_child_major_coll));
    if i > 0 then begin
      (* Charge this span's inclusive totals to the parent's child
         accumulators so the parent's exit reports exclusive figures. *)
      let p = s.frames.(i - 1) in
      p.f_child_ns <- p.f_child_ns + total_ns;
      p.f_child_minor <- p.f_child_minor + minor;
      p.f_child_promoted <- p.f_child_promoted + promoted;
      p.f_child_major <- p.f_child_major + major;
      p.f_child_minor_coll <- p.f_child_minor_coll + minor_coll;
      p.f_child_major_coll <- p.f_child_major_coll + major_coll
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
  r_promoted_words : int;
  r_major_words : int;
  r_minor_collections : int;
  r_major_collections : int;
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
            r_promoted_words = Metrics.Counter.value t.c_promoted;
            r_major_words = Metrics.Counter.value t.c_major;
            r_minor_collections = Metrics.Counter.value t.c_minor_coll;
            r_major_collections = Metrics.Counter.value t.c_major_coll;
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
      let tbl : (string, row ref) Hashtbl.t = Hashtbl.create 16 in
      let row label =
        match Hashtbl.find_opt tbl label with
        | Some r -> r
        | None ->
            let r =
              ref
                {
                  r_name = label;
                  r_calls = 0;
                  r_total_ns = 0;
                  r_self_ns = 0;
                  r_max_ns = 0;
                  r_minor_words = 0;
                  r_promoted_words = 0;
                  r_major_words = 0;
                  r_minor_collections = 0;
                  r_major_collections = 0;
                }
            in
            Hashtbl.replace tbl label r;
            r
      in
      let str e key =
        Option.bind (Json.member e key) Json.to_string_opt
      in
      let int_field e key =
        match Option.bind (Json.member e key) Json.to_int_opt with
        | Some v -> v
        | None -> 0
      in
      List.iter
        (fun e ->
          match (str e "subsystem", str e "name", str e "label") with
          | Some "profile", Some name, Some label -> (
              let r = row label in
              match name with
              | "span_ns" ->
                  r :=
                    {
                      !r with
                      r_calls = int_field e "count";
                      r_total_ns = int_field e "sum";
                      r_max_ns = int_field e "max";
                    }
              | "self_ns" -> r := { !r with r_self_ns = int_field e "value" }
              | "minor_words" ->
                  r := { !r with r_minor_words = int_field e "value" }
              | "promoted_words" ->
                  r := { !r with r_promoted_words = int_field e "value" }
              | "major_words" ->
                  r := { !r with r_major_words = int_field e "value" }
              | "minor_collections" ->
                  r := { !r with r_minor_collections = int_field e "value" }
              | "major_collections" ->
                  r := { !r with r_major_collections = int_field e "value" }
              | _ -> ())
          | _ -> ())
        entries;
      Ok (sort_rows (Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []))

let render rows =
  let total_self =
    List.fold_left (fun acc r -> acc + r.r_self_ns) 0 rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %10s %10s %6s %10s %10s %9s %6s %6s\n" "span"
       "calls" "self-ms" "self%" "ns/call" "words/call" "promoted" "minGC"
       "majGC");
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
          (Printf.sprintf "%-22s %10d %10.2f %5.1f%% %10.0f %10.1f %9d %6d %6d\n"
             r.r_name r.r_calls
             (float_of_int r.r_self_ns /. 1e6)
             share
             (float_of_int r.r_total_ns /. float_of_int calls)
             (float_of_int r.r_minor_words /. float_of_int calls)
             r.r_promoted_words r.r_minor_collections r.r_major_collections))
      rows;
  Buffer.contents buf
