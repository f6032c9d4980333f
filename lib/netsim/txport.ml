module Time = Planck_util.Time
module Rate = Planck_util.Rate
module Packet = Planck_packet.Packet

type t = {
  engine : Engine.t;
  rate : Rate.t;
  prop_delay : Time.t;
  queues : Packet.t Queue.t array;
  priority_class : int option;
  deliver : Packet.t -> unit;
  on_depart : Packet.t -> unit;
  (* Cross-shard links: when set, the propagation leg is the peer
     shard's business — hand the frame and its arrival time to the
     channel instead of the local deliveries queue. *)
  handoff : (Time.t -> Packet.t -> unit) option;
  mutable next_class : int; (* round-robin scan position *)
  mutable busy : bool;
  mutable in_flight : Packet.t option; (* frame on the serializer *)
  (* Frames propagating towards the peer. The propagation delay is a
     per-port constant, so arrivals are FIFO and one timer paces them
     all; no per-packet closure is allocated. *)
  deliveries : (Time.t * Packet.t) Queue.t;
  tx_timer : Engine.Timer.t;
  delivery_timer : Engine.Timer.t;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

(* Strict priority first, then round-robin: scan from next_class for
   the first non-empty sub-queue. *)
let pop_next t =
  let n = Array.length t.queues in
  let from_priority =
    match t.priority_class with
    | Some p when not (Queue.is_empty t.queues.(p)) ->
        Some (Queue.pop t.queues.(p))
    | Some _ | None -> None
  in
  match from_priority with
  | Some _ as packet -> packet
  | None ->
      let skip cls = t.priority_class = Some cls in
      let rec scan i =
        if i = n then None
        else begin
          let cls = (t.next_class + i) mod n in
          if skip cls || Queue.is_empty t.queues.(cls) then scan (i + 1)
          else begin
            t.next_class <- (cls + 1) mod n;
            Some (Queue.pop t.queues.(cls))
          end
        end
      in
      scan 0

let rec transmit_next t =
  match pop_next t with
  | None -> t.busy <- false
  | Some packet ->
      t.busy <- true;
      t.in_flight <- Some packet;
      let tx = Rate.tx_time t.rate ~bytes_:packet.Packet.wire_size in
      Engine.Timer.reschedule t.tx_timer ~delay:tx

and on_tx_done t =
  match t.in_flight with
  | None -> ()
  | Some packet ->
      t.in_flight <- None;
      t.tx_packets <- t.tx_packets + 1;
      t.tx_bytes <- t.tx_bytes + packet.Packet.wire_size;
      t.on_depart packet;
      let ready = Engine.now t.engine + t.prop_delay in
      (match t.handoff with
      | Some h -> h ready packet
      | None ->
          Queue.push (ready, packet) t.deliveries;
          if not (Engine.Timer.pending t.delivery_timer) then
            Engine.Timer.reschedule_at t.delivery_timer ~time:ready);
      transmit_next t

let on_delivery t =
  (match Queue.take_opt t.deliveries with
  | None -> ()
  | Some (_, packet) -> t.deliver packet);
  match Queue.peek_opt t.deliveries with
  | Some (ready, _) -> Engine.Timer.reschedule_at t.delivery_timer ~time:ready
  | None -> ()

let create engine ~rate ~prop_delay ~classes ?priority_class ?handoff ~deliver
    ~on_depart () =
  if classes <= 0 then invalid_arg "Txport.create: classes must be positive";
  (match priority_class with
  | Some p when p < 0 || p >= classes ->
      invalid_arg "Txport.create: priority class out of range"
  | Some _ | None -> ());
  let t =
    {
      engine;
      rate;
      prop_delay;
      queues = Array.init classes (fun _ -> Queue.create ());
      priority_class;
      deliver;
      on_depart;
      handoff;
      next_class = 0;
      busy = false;
      in_flight = None;
      deliveries = Queue.create ();
      tx_timer = Engine.Timer.create engine ignore;
      delivery_timer = Engine.Timer.create engine ignore;
      tx_packets = 0;
      tx_bytes = 0;
    }
  in
  Engine.Timer.set_callback t.tx_timer (fun () -> on_tx_done t);
  Engine.Timer.set_callback t.delivery_timer (fun () -> on_delivery t);
  t

let enqueue t ~cls packet =
  Queue.push packet t.queues.(cls);
  if not t.busy then transmit_next t

let tx_packets t = t.tx_packets
let tx_bytes t = t.tx_bytes
