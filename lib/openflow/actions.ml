module Packet = Planck_packet.Packet
module Headers = Planck_packet.Headers
module Mac = Planck_packet.Mac
module Switch = Planck_netsim.Switch
module Host = Planck_netsim.Host

(* OpenFlow packet-out: one control-channel delay, then normal egress
   queueing. [on_injected] runs when the frame enters the switch — the
   journal's install stamp. *)
let packet_out ?(on_injected = fun () -> ()) channel switch ~port packet =
  Control_channel.send channel (fun () ->
      Switch.inject switch ~port packet;
      on_injected ())

let install_flow_rewrite channel switch ~key ~to_mac ~on_installed =
  Control_channel.install_rule channel (fun () ->
      Switch.add_flow_rewrite switch ~key ~to_mac;
      on_installed ())

let spoof_arp ?on_injected channel switch ~port ~target ~pretend_ip
    ~pretend_mac =
  let request =
    Packet.arp ~src_mac:pretend_mac ~dst_mac:(Host.mac target)
      {
        Headers.Arp.op = Headers.Arp.Request;
        sender_mac = pretend_mac;
        sender_ip = pretend_ip;
        target_mac = Host.mac target;
        target_ip = Host.ip target;
      }
  in
  packet_out ?on_injected channel switch ~port request
