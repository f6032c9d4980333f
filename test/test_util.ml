(* Unit and property tests for Planck_util. *)

module Time = Planck_util.Time
module Heap = Planck_util.Heap
module Event_queue = Planck_util.Event_queue
module Ring = Planck_util.Ring
module Prng = Planck_util.Prng
module Stats = Planck_util.Stats
module Rate = Planck_util.Rate
module Table = Planck_util.Table

let check_float = Alcotest.(check (float 1e-9))

(* ---- Time ---- *)

let time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Time.s 1);
  check_float "to_float_s" 1.5 (Time.to_float_s (Time.ms 1500));
  check_float "of_float_s roundtrip" 2.5e-3
    (Time.to_float_s (Time.of_float_s 2.5e-3));
  Alcotest.(check string) "pp ms" "3.50ms" (Time.to_string (Time.us 3500));
  Alcotest.(check string) "pp us" "280.00us" (Time.to_string (Time.us 280));
  Alcotest.(check string) "pp ns" "42ns" (Time.to_string (Time.ns 42))

(* ---- Heap ---- *)

let heap_basic () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.add h ~key:5 "five";
  Heap.add h ~key:1 "one";
  Heap.add h ~key:3 "three";
  Alcotest.(check (option int)) "min" (Some 1) (Heap.min_key h);
  Alcotest.(check (option (pair int string)))
    "pop order 1" (Some (1, "one")) (Heap.pop h);
  Alcotest.(check (option (pair int string)))
    "pop order 2" (Some (3, "three")) (Heap.pop h);
  Alcotest.(check (option (pair int string)))
    "pop order 3" (Some (5, "five")) (Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop empty" None (Heap.pop h)

let heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~key:7 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "FIFO among equal keys" [ "a"; "b"; "c" ] order

let heap_sorts_qcheck =
  QCheck.Test.make ~name:"heap pops keys in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k ()) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* Interleaved add/pop programs starting from a fresh [create ()]
   (zero-capacity backing array) against a sorted-list model: exercises
   [ensure_capacity] growth at every size, and FIFO order among equal
   keys via unique insertion indices as values. *)
let heap_mixed_ops_qcheck =
  QCheck.Test.make ~name:"heap add/pop program matches sorted model"
    ~count:300
    QCheck.(list (pair bool (int_bound 50)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let idx = ref 0 in
      let take_min () =
        match !model with
        | [] -> None
        | entries ->
            let min =
              List.fold_left
                (fun acc e -> if compare e acc < 0 then e else acc)
                (List.hd entries) entries
            in
            model := List.filter (fun e -> e <> min) !model;
            Some min
      in
      List.for_all
        (fun (is_pop, k) ->
          if is_pop then Heap.pop h = take_min ()
          else begin
            Heap.add h ~key:k !idx;
            model := (k, !idx) :: !model;
            incr idx;
            true
          end)
        ops
      && (* drain: whatever remains must still pop in model order *)
      List.for_all
        (fun _ -> Heap.pop h = take_min ())
        (List.init (Heap.length h) (fun i -> i)))

(* ---- Event queue ---- *)

(* Scheduler oracle: one random program (adds across every delay
   magnitude and at the near/far boundary, re-arms of pending, fired
   and cancelled handles, cancels, pops) replayed against a list model
   of the (key, seq) order. Pop order (key AND insertion index, i.e.
   the FIFO tie-break) and cancel outcomes must agree. Keys at the
   boundary depend on the queue's horizon, so the queue run resolves
   each step to a concrete op and the model replays those. *)
type queue_trace = Popped of (int * int) option | Cancelled_ok of bool

type queue_op = Add of int | Rearm of int * int | Cancel of int | Pop

let queue_program_gen =
  (* (tag, n): tags 0-4 add at a tag-dependent delay, 5 adds exactly at
     the horizon, 6 just below it or far past it, 7 re-arms the
     (n mod adds)-th handle ever added (pending, fired or cancelled;
     every third time exactly at the horizon), 8 cancels it, 9-11 pop. *)
  QCheck.(list (pair (int_bound 11) (int_bound 10_000)))

let queue_delay tag n =
  match tag with
  | 0 | 1 | 2 -> n mod 64 (* forces equal-key FIFO ties *)
  | 3 -> n (* within the near tier *)
  | _ -> n * 997 (* up to ~10ms: past the near tier's span *)

let run_queue_program program =
  let q = Event_queue.create () in
  let handles = Array.make (List.length program + 1) (Event_queue.handle 0) in
  let n_handles = ref 0 in
  let now = ref 0 in
  let trace = ref [] and ops = ref [] in
  let pop () =
    let r =
      if Event_queue.is_empty q then None
      else
        let h = Event_queue.take q in
        now := Event_queue.key h;
        Some (Event_queue.key h, Event_queue.value h)
    in
    ops := Pop :: !ops;
    trace := Popped r :: !trace
  in
  let add key =
    let h = Event_queue.handle !n_handles in
    handles.(!n_handles) <- h;
    incr n_handles;
    Event_queue.add q h ~key;
    ops := Add key :: !ops
  in
  List.iter
    (fun (tag, n) ->
      let horizon = max !now (Event_queue.horizon q) in
      match tag with
      | 0 | 1 | 2 | 3 | 4 -> add (!now + queue_delay tag n)
      | 5 -> add horizon
      | 6 ->
          add
            (if n land 1 = 0 then max !now (horizon - 1)
             else horizon + (n * 1_000))
      | 7 | 8 when !n_handles > 0 ->
          let i = n mod !n_handles in
          if tag = 7 then begin
            let key =
              if n mod 3 = 0 then horizon else !now + queue_delay (n mod 5) n
            in
            Event_queue.add q handles.(i) ~key;
            ops := Rearm (i, key) :: !ops
          end
          else begin
            trace := Cancelled_ok (Event_queue.cancel q handles.(i)) :: !trace;
            ops := Cancel i :: !ops
          end
      | 7 | 8 -> ()
      | _ -> pop ())
    program;
  while not (Event_queue.is_empty q) do
    pop ()
  done;
  pop ();
  (List.rev !trace, List.rev !ops)

(* The reference: every handle ever added, with its latest (key, seq)
   and whether it is pending. *)
type model_entry = {
  mutable m_key : int;
  mutable m_seq : int;
  mutable live : bool;
}

let run_model_program ops =
  let fresh () = { m_key = 0; m_seq = 0; live = false } in
  let entries = Array.make (List.length ops) (fresh ()) in
  let n = ref 0 and next_seq = ref 0 and trace = ref [] in
  let arm e key =
    e.m_key <- key;
    e.m_seq <- !next_seq;
    e.live <- true;
    incr next_seq
  in
  let pop () =
    let best = ref (-1) in
    let order e = (e.m_key, e.m_seq) in
    for i = !n - 1 downto 0 do
      let e = entries.(i) in
      if e.live && (!best < 0 || order e < order entries.(!best)) then
        best := i
    done;
    if !best < 0 then None
    else begin
      entries.(!best).live <- false;
      Some (entries.(!best).m_key, !best)
    end
  in
  List.iter
    (function
      | Add key ->
          let e = fresh () in
          entries.(!n) <- e;
          incr n;
          arm e key
      | Rearm (i, key) -> arm entries.(i) key
      | Cancel i ->
          trace := Cancelled_ok entries.(i).live :: !trace;
          entries.(i).live <- false
      | Pop -> trace := Popped (pop ()) :: !trace)
    ops;
  List.rev !trace

let event_queue_model_qcheck =
  QCheck.Test.make ~name:"event queue matches the list model" ~count:500
    queue_program_gen (fun program ->
      let trace, ops = run_queue_program program in
      trace = run_model_program ops)

(* Cancel is eager: the entry leaves the queue at once, so the length,
   the minimum and the next take see only live entries. *)
let event_queue_eager_cancel () =
  let q = Event_queue.create () in
  let keep = Event_queue.handle 0 in
  Event_queue.add q keep ~key:500_000;
  let hs =
    List.init 200 (fun i ->
        let h = Event_queue.handle (i + 1) in
        Event_queue.add q h ~key:(1_000 * (i + 1));
        h)
  in
  Alcotest.(check int) "key recorded" 500_000 (Event_queue.key keep);
  Alcotest.(check int) "all pending" 201 (Event_queue.length q);
  List.iter
    (fun h -> Alcotest.(check bool) "cancel live" true (Event_queue.cancel q h))
    hs;
  Alcotest.(check int) "cancelled entries are gone" 1 (Event_queue.length q);
  Alcotest.(check int) "minimum is the survivor" 500_000
    (Event_queue.min_key q);
  Alcotest.(check bool) "double cancel refused" false
    (Event_queue.cancel q (List.hd hs));
  Alcotest.(check bool) "cancelled is not pending" false
    (Event_queue.is_pending (List.hd hs));
  Alcotest.(check bool) "survivor pending" true (Event_queue.is_pending keep);
  let h = Event_queue.take q in
  Alcotest.(check bool) "survivor pops" true (h == keep);
  Alcotest.(check bool) "fired is not pending" false
    (Event_queue.is_pending keep);
  Alcotest.(check bool) "cancel after fire refused" false
    (Event_queue.cancel q keep);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Event_queue: empty queue") (fun () ->
      ignore (Event_queue.take q : int Event_queue.handle));
  (* a cancelled handle is reusable *)
  Event_queue.add q (List.nth hs 7) ~key:600_000;
  Alcotest.(check int) "re-armed after cancel" 8
    (Event_queue.value (Event_queue.take q))

(* ---- Ring ---- *)

let ring_fifo () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check bool) "push 1" true (Ring.push r 1);
  Alcotest.(check bool) "push 2" true (Ring.push r 2);
  Alcotest.(check bool) "push 3" true (Ring.push r 3);
  Alcotest.(check bool) "push full" false (Ring.push r 4);
  Alcotest.(check int) "drops" 1 (Ring.drops r);
  Alcotest.(check (option int)) "pop" (Some 1) (Ring.pop r);
  Alcotest.(check bool) "push after pop" true (Ring.push r 5);
  Alcotest.(check (list int)) "to_list" [ 2; 3; 5 ] (Ring.to_list r);
  Alcotest.(check (list int)) "batch" [ 2; 3 ] (Ring.pop_batch r ~max:2);
  Alcotest.(check int) "length" 1 (Ring.length r)

let ring_wraparound () =
  (* Interleaved push/pop forces the head index to lap the backing
     array several times; FIFO order must survive each wrap. *)
  let r = Ring.create ~capacity:4 in
  let next = ref 0 and expect = ref 0 in
  for _round = 1 to 10 do
    for _ = 1 to 3 do
      Alcotest.(check bool) "push accepted" true (Ring.push r !next);
      incr next
    done;
    for _ = 1 to 3 do
      Alcotest.(check (option int)) "FIFO across wrap" (Some !expect)
        (Ring.pop r);
      incr expect
    done
  done;
  Alcotest.(check int) "empty after rounds" 0 (Ring.length r);
  Alcotest.(check int) "no drops when never full" 0 (Ring.drops r)

let ring_drop_accounting () =
  let r = Ring.create ~capacity:2 in
  ignore (Ring.push r 1);
  ignore (Ring.push r 2);
  Alcotest.(check bool) "drop 1" false (Ring.push r 3);
  Alcotest.(check bool) "drop 2" false (Ring.push r 4);
  Alcotest.(check int) "two drops counted" 2 (Ring.drops r);
  ignore (Ring.pop r);
  Alcotest.(check bool) "accepted after pop" true (Ring.push r 5);
  Alcotest.(check int) "drops persist across pops" 2 (Ring.drops r);
  Ring.clear r;
  Alcotest.(check int) "drops survive clear" 2 (Ring.drops r);
  Alcotest.(check (list int)) "cleared contents" [] (Ring.to_list r)

let ring_pop_batch_partial () =
  let r = Ring.create ~capacity:8 in
  List.iter (fun v -> ignore (Ring.push r v)) [ 10; 20; 30 ];
  Alcotest.(check (list int))
    "max larger than length drains all" [ 10; 20; 30 ]
    (Ring.pop_batch r ~max:100);
  Alcotest.(check (list int)) "batch on empty" [] (Ring.pop_batch r ~max:4);
  List.iter (fun v -> ignore (Ring.push r v)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "partial drain" [ 1; 2 ] (Ring.pop_batch r ~max:2);
  Alcotest.(check int) "remainder stays" 3 (Ring.length r);
  Alcotest.(check (list int)) "zero max" [] (Ring.pop_batch r ~max:0)

let ring_qcheck =
  QCheck.Test.make ~name:"ring preserves FIFO order under mixed ops"
    ~count:200
    QCheck.(pair (int_range 1 16) (list (option small_int)))
    (fun (cap, ops) ->
      (* Some x = push x, None = pop; compare against a plain queue. *)
      let r = Ring.create ~capacity:cap in
      let q = Queue.create () in
      List.iter
        (function
          | Some x ->
              let accepted = Ring.push r x in
              if accepted then Queue.push x q
          | None -> (
              match (Ring.pop r, Queue.take_opt q) with
              | Some a, Some b -> assert (a = b)
              | None, None -> ()
              | _ -> assert false))
        ops;
      Ring.length r = Queue.length q)

(* ---- Prng ---- *)

let prng_deterministic () =
  let a = Prng.create ~seed:9 and b = Prng.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_bounds () =
  let p = Prng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1_000 do
    let f = Prng.float p 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let prng_split_independent () =
  let p = Prng.create ~seed:4 in
  let q = Prng.split p in
  let xs = List.init 16 (fun _ -> Prng.int p 1_000_000) in
  let ys = List.init 16 (fun _ -> Prng.int q 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let derangement_qcheck =
  QCheck.Test.make ~name:"derangement has no fixed points" ~count:100
    QCheck.(int_range 2 64)
    (fun n ->
      let p = Prng.create ~seed:n in
      let d = Prng.derangement p n in
      let is_permutation =
        List.sort compare (Array.to_list d) = List.init n Fun.id
      in
      is_permutation && Array.for_all (fun i -> d.(i) <> i) (Array.init n Fun.id)
      |> fun ok -> ok && Array.length d = n)

let permutation_qcheck =
  QCheck.Test.make ~name:"permutation is a permutation" ~count:100
    QCheck.(int_range 0 128)
    (fun n ->
      let p = Prng.create ~seed:(n + 1) in
      List.sort compare (Array.to_list (Prng.permutation p n))
      = List.init n Fun.id)

(* ---- Stats ---- *)

let stats_basic () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 1.5 (Stats.median [ 1.0; 2.0 ]);
  check_float "p0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  check_float "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ]);
  check_float "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check bool) "mean empty nan" true (Float.is_nan (Stats.mean []))

let stats_cdf () =
  let cdf = Stats.cdf [ 2.0; 1.0 ] in
  Alcotest.(check int) "cdf points" 2 (List.length cdf);
  let v, f = List.nth cdf 1 in
  check_float "last value" 2.0 v;
  check_float "last fraction" 1.0 f

let stats_mre () =
  check_float "exact" 0.0
    (Stats.mean_relative_error ~truth:[ 1.0; 2.0 ] ~estimate:[ 1.0; 2.0 ]);
  check_float "10 percent" 0.1
    (Stats.mean_relative_error ~truth:[ 10.0 ] ~estimate:[ 11.0 ])

let stats_percentile_interpolation () =
  (* Linear interpolation between closest ranks: with [10;20;30;40],
     p25 sits 3/4 of the way from 10 to 20. *)
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  check_float "p25 interpolates" 17.5 (Stats.percentile 25.0 xs);
  check_float "p50 interpolates" 25.0 (Stats.percentile 50.0 xs);
  check_float "p0 is min" 10.0 (Stats.percentile 0.0 xs);
  check_float "p100 is max" 40.0 (Stats.percentile 100.0 xs);
  check_float "singleton any p" 7.0 (Stats.percentile 63.0 [ 7.0 ]);
  Alcotest.check_raises "p > 100 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101.0 xs));
  Alcotest.check_raises "p < 0 rejected"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile (-1.0) xs))

let stats_histogram_degenerate () =
  (* All-equal samples: lo = hi, so the bin width falls back to 1.0 and
     everything lands in bucket 0. *)
  let h = Stats.histogram ~bins:4 [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check int) "bins" 4 (Array.length h);
  check_float "first edge is the value" 5.0 (fst h.(0));
  Alcotest.(check int) "all in first bin" 3 (snd h.(0));
  Alcotest.(check int) "rest empty" 0 (snd h.(1) + snd h.(2) + snd h.(3));
  let empty = Stats.histogram ~bins:3 [] in
  Alcotest.(check int) "empty input keeps bins" 3 (Array.length empty);
  Alcotest.(check int) "empty input zero counts" 0
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 empty)

let stats_mre_zero_truth () =
  (* Pairs whose truth is 0 are skipped, not divided by. *)
  check_float "zero-truth pair skipped" 0.1
    (Stats.mean_relative_error ~truth:[ 0.0; 10.0 ] ~estimate:[ 99.0; 11.0 ]);
  Alcotest.(check bool) "all zero truth yields nan" true
    (Float.is_nan
       (Stats.mean_relative_error ~truth:[ 0.0; 0.0 ] ~estimate:[ 1.0; 2.0 ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.mean_relative_error: length mismatch") (fun () ->
      ignore (Stats.mean_relative_error ~truth:[ 1.0 ] ~estimate:[]))

let percentile_qcheck =
  QCheck.Test.make ~name:"percentile is monotone and within bounds"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      let p25 = Stats.percentile 25.0 xs
      and p50 = Stats.percentile 50.0 xs
      and p75 = Stats.percentile 75.0 xs in
      p25 >= lo && p75 <= hi && p25 <= p50 && p50 <= p75)

let online_matches_batch_qcheck =
  QCheck.Test.make ~name:"online mean/stddev match batch" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let o = Stats.Online.create () in
      List.iter (Stats.Online.add o) xs;
      abs_float (Stats.Online.mean o -. Stats.mean xs) < 1e-6
      && abs_float (Stats.Online.stddev o -. Stats.stddev xs) < 1e-6)

(* ---- Rate ---- *)

let rate_roundtrip () =
  let r = Rate.gbps 10.0 in
  Alcotest.(check int) "tx time of 1250 bytes at 10G" 1_000
    (Rate.tx_time r ~bytes_:1250);
  Alcotest.(check int) "bytes in 1us at 10G" 1250
    (Rate.bytes_in r (Time.us 1));
  check_float "of_bytes_per" 1e9
    (Rate.of_bytes_per 125_000_000 Time.second);
  Alcotest.(check int) "zero bytes zero time" 0 (Rate.tx_time r ~bytes_:0);
  Alcotest.(check bool) "min 1ns for tiny frames" true
    (Rate.tx_time (Rate.gbps 100.0) ~bytes_:1 >= 1)

(* ---- Table ---- *)

let table_render () =
  let out =
    Table.render ~header:[ "name"; "value" ]
      [ [ "x"; "1" ]; [ "long-name"; "22" ] ]
  in
  Alcotest.(check bool) "has separator" true (String.contains out '-');
  Alcotest.(check bool) "pads columns" true
    (String.length (List.nth (String.split_on_char '\n' out) 0)
    = String.length (List.nth (String.split_on_char '\n' out) 2))

let table_csv () =
  let out = Table.csv ~header:[ "a"; "b" ] [ [ "1,5"; "x\"y" ] ] in
  Alcotest.(check string) "quoting" "a,b\n\"1,5\",\"x\"\"y\"\n" out

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "time units and printing" `Quick time_units;
    Alcotest.test_case "heap basic ordering" `Quick heap_basic;
    Alcotest.test_case "heap FIFO tie-break" `Quick heap_fifo_ties;
    qtest heap_sorts_qcheck;
    qtest heap_mixed_ops_qcheck;
    qtest event_queue_model_qcheck;
    Alcotest.test_case "event queue eager cancel and lifecycle" `Quick
      event_queue_eager_cancel;
    Alcotest.test_case "ring FIFO and drops" `Quick ring_fifo;
    Alcotest.test_case "ring wraparound under interleaved ops" `Quick
      ring_wraparound;
    Alcotest.test_case "ring drop accounting" `Quick ring_drop_accounting;
    Alcotest.test_case "ring pop_batch partial drain" `Quick
      ring_pop_batch_partial;
    qtest ring_qcheck;
    Alcotest.test_case "prng determinism" `Quick prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick prng_bounds;
    Alcotest.test_case "prng split independence" `Quick prng_split_independent;
    qtest derangement_qcheck;
    qtest permutation_qcheck;
    Alcotest.test_case "stats basics" `Quick stats_basic;
    Alcotest.test_case "stats cdf" `Quick stats_cdf;
    Alcotest.test_case "stats mean relative error" `Quick stats_mre;
    Alcotest.test_case "stats percentile interpolation endpoints" `Quick
      stats_percentile_interpolation;
    Alcotest.test_case "stats histogram equal lo/hi" `Quick
      stats_histogram_degenerate;
    Alcotest.test_case "stats mre zero-truth filtering" `Quick
      stats_mre_zero_truth;
    qtest percentile_qcheck;
    qtest online_matches_batch_qcheck;
    Alcotest.test_case "rate arithmetic" `Quick rate_roundtrip;
    Alcotest.test_case "table rendering" `Quick table_render;
    Alcotest.test_case "table csv quoting" `Quick table_csv;
  ]
