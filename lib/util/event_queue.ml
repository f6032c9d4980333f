(* Two position-indexed binary min-heaps over (key, seq).

   Invariant: every near key < [horizon] <= every far key, so the near
   root, when there is one, is the global minimum. The horizon only
   moves when the near heap is empty: it is then set [width] past the
   far minimum, and the far entries below it move over in ascending
   order (each an O(1) append to the near heap).

   Each handle records its tier and its index in that tier's array,
   which is what makes in-place re-arm and eager cancel O(log n). *)

type tier = Idle | Near | Far

type 'a handle = {
  mutable key : int;
  mutable seq : int;
  mutable value : 'a;
  mutable tier : tier;
  mutable pos : int; (* index in its tier's array; stale when Idle *)
}

type 'a heap = { mutable arr : 'a handle array; mutable len : int }

type 'a t = {
  near : 'a heap;
  far : 'a heap;
  mutable horizon : int;
  mutable next_seq : int;
}

(* Near-tier span, ~1ms of simulated time: wide enough to hold the
   packet-scale events in flight, narrow enough to keep far-future
   flow starts and timeouts out of their sifts. *)
let width = 1 lsl 20

let create () =
  {
    near = { arr = [||]; len = 0 };
    far = { arr = [||]; len = 0 };
    horizon = 0;
    next_seq = 0;
  }

let handle value = { key = 0; seq = 0; value; tier = Idle; pos = 0 }
let value h = h.value
let set_value h v = h.value <- v
let key h = h.key
let is_pending h = match h.tier with Idle -> false | Near | Far -> true
let length q = q.near.len + q.far.len
let is_empty q = q.near.len = 0 && q.far.len = 0
let horizon q = q.horizon

let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let place hp i h =
  hp.arr.(i) <- h;
  h.pos <- i

(* Move [h] from the hole at [i] towards the root. *)
let rec sift_up hp i h =
  if i = 0 then place hp 0 h
  else
    let parent = (i - 1) lsr 1 in
    let p = hp.arr.(parent) in
    if before h p then begin
      place hp i p;
      sift_up hp parent h
    end
    else place hp i h

(* Move [h] from the hole at [i] towards the leaves. *)
let rec sift_down hp i h =
  let l = (2 * i) + 1 in
  if l >= hp.len then place hp i h
  else
    let r = l + 1 in
    let c = if r < hp.len && before hp.arr.(r) hp.arr.(l) then r else l in
    let child = hp.arr.(c) in
    if before child h then begin
      place hp i child;
      sift_down hp c h
    end
    else place hp i h

let fix hp i h =
  if i > 0 && before h hp.arr.((i - 1) lsr 1) then sift_up hp i h
  else sift_down hp i h

let push hp tier h =
  if hp.len = Array.length hp.arr then begin
    let arr = Array.make (max 16 (2 * hp.len)) h in
    Array.blit hp.arr 0 arr 0 hp.len;
    hp.arr <- arr
  end;
  h.tier <- tier;
  hp.len <- hp.len + 1;
  sift_up hp (hp.len - 1) h

let remove hp h =
  let last = hp.arr.(hp.len - 1) in
  hp.len <- hp.len - 1;
  h.tier <- Idle;
  if last != h then fix hp h.pos last

let set_horizon q key =
  q.horizon <- (if key > max_int - width then max_int else key + width)

let push_tiered q h =
  if h.key < q.horizon then push q.near Near h
  else if q.near.len = 0 && q.far.len = 0 then begin
    set_horizon q h.key;
    push q.near Near h
  end
  else push q.far Far h

let add q h ~key =
  h.key <- key;
  h.seq <- q.next_seq;
  q.next_seq <- q.next_seq + 1;
  match h.tier with
  | Idle -> push_tiered q h
  | Near when key < q.horizon -> fix q.near h.pos h
  | Far when key >= q.horizon -> fix q.far h.pos h
  | Near ->
      remove q.near h;
      push q.far Far h
  | Far ->
      remove q.far h;
      push q.near Near h

let cancel q h =
  match h.tier with
  | Idle -> false
  | Near ->
      remove q.near h;
      true
  | Far ->
      remove q.far h;
      true

(* Near heap empty: advance the horizon past the far minimum and move
   every far entry below it. They leave the far heap in ascending
   order, so each lands at the near heap's end without sifting. *)
let refill q =
  if q.far.len = 0 then invalid_arg "Event_queue: empty queue";
  set_horizon q q.far.arr.(0).key;
  while q.far.len > 0 && q.far.arr.(0).key < q.horizon do
    let h = q.far.arr.(0) in
    remove q.far h;
    push q.near Near h
  done

let min_key q =
  if q.near.len = 0 then refill q;
  q.near.arr.(0).key

let take q =
  if q.near.len = 0 then refill q;
  let h = q.near.arr.(0) in
  remove q.near h;
  h
