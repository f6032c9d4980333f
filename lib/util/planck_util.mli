(** Shared utilities for the Planck reproduction: simulated time, event
    heap, ring buffers, deterministic PRNG, statistics, data rates and
    table rendering. *)

module Time = Time
module Heap = Heap
module Event_queue = Event_queue
module Ring = Ring
module Spsc = Spsc
module Prng = Prng
module Stats = Stats
module Rate = Rate
module Table = Table
