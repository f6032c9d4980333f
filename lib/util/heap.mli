(** A binary min-heap keyed by integer priorities.

    Insertion order is preserved among equal keys (FIFO tie-breaking):
    two entries added with the same key pop in the order they were
    added. The engine's own queue is {!Event_queue}. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. O(log n). *)

val min_key : 'a t -> int option
(** Key of the minimum element, or [None] if empty. O(1). *)

val peek : 'a t -> (int * 'a) option
(** The minimum element without removing it (same element {!pop} would
    return next). O(1). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum element (FIFO among equal keys).
    O(log n). *)
