(* A standard array-backed binary min-heap. Each entry carries a strictly
   increasing sequence number so that equal keys pop in insertion order,
   which the simulator relies on for deterministic event ordering. *)

type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let length h = h.size
let is_empty h = h.size = 0

let entry_lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* Total from any state: [fill] seeds fresh slots, so growing works even
   when the backing array is empty (no [h.data.(0)] dummy read). *)
let ensure_capacity h fill =
  if h.size = Array.length h.data then begin
    let capacity = max 16 (2 * Array.length h.data) in
    let data = Array.make capacity fill in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < h.size && entry_lt h.data.(left) h.data.(!smallest) then
    smallest := left;
  if right < h.size && entry_lt h.data.(right) h.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h ~key value =
  let entry = { key; seq = h.next_seq; value } in
  h.next_seq <- h.next_seq + 1;
  ensure_capacity h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let min_key h = if h.size = 0 then None else Some h.data.(0).key

let peek h =
  if h.size = 0 then None
  else
    let top = h.data.(0) in
    Some (top.key, top.value)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some (top.key, top.value)
  end
