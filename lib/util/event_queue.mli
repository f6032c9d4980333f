(** The engine's event queue: a two-tier binary min-heap of intrusive,
    reusable handles.

    Entries pop in ascending [(key, seq)] order, where [seq] is a
    strictly increasing stamp taken on every {!add}: equal keys pop in
    the order they were (last) added. Keys below a moving horizon live
    in a small {e near} heap; keys at or past it wait in a {e far} heap
    that refills the near one only when the near heap runs empty, so
    the bulk of pending far-future events (flow starts, RTOs) stays out
    of the hot sifts.

    A handle is allocated once and re-armed in place for its whole
    life. Neither {!add}, {!cancel}, {!min_key} nor {!take} allocates
    (the backing arrays grow geometrically and never shrink). *)

type 'a t

type 'a handle
(** A reusable queue entry carrying a value. At any time it is either
    pending in exactly one queue or idle. *)

val create : unit -> 'a t

val handle : 'a -> 'a handle
(** A new idle handle. *)

val value : 'a handle -> 'a

val set_value : 'a handle -> 'a -> unit
(** Replace the value, including that of a pending handle. *)

val key : 'a handle -> int
(** The key of the handle's latest {!add}. *)

val is_pending : 'a handle -> bool

val length : 'a t -> int
(** Pending entries. *)

val is_empty : 'a t -> bool

val add : 'a t -> 'a handle -> key:int -> unit
(** Arm the handle at [key] with a fresh sequence stamp. A pending
    handle moves in place, which orders it exactly as a cancel followed
    by an add would. The handle must be idle or pending in this
    queue. *)

val cancel : 'a t -> 'a handle -> bool
(** Remove a pending handle now; [false] if it was idle. *)

val horizon : 'a t -> int
(** The near/far boundary: pending keys below it sit in the near heap.
    Introspection for tests. *)

val min_key : 'a t -> int
(** Key of the entry {!take} would return. Raises [Invalid_argument]
    on an empty queue. *)

val take : 'a t -> 'a handle
(** Remove and return the minimum entry, which becomes idle. Raises
    [Invalid_argument] on an empty queue. *)
