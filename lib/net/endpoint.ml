type 'a t = {
  name : string;
  node : Node.t;
  chan : 'a Sim.Channel.t;
  mutable next_seq : int;
  seen : Dedup.t;
  dup_discards : Obs.Metrics.counter;
  capacity : int; (* 0 = unbounded *)
  mutable overflow : ('a -> bool) option;
}

(* Sliding dedup window, modeling an RDMA RC endpoint's PSN check: each
   posted message carries a sender-assigned sequence number, and a second
   delivery of an already-seen number (a duplicated fabric message) is
   discarded at the receiver. *)
let window = 1024

let create ~node ?(capacity = 0) name =
  {
    name;
    node;
    chan = Sim.Channel.create ();
    next_seq = 0;
    seen = Dedup.create ~window;
    dup_discards =
      Obs.Metrics.counter ~node:node.Node.name "net.dup_discards";
    capacity;
    overflow = None;
  }

let set_overflow ep f = ep.overflow <- Some f

(* One posted message in flight: what the static [arrive] needs at the
   receive side, so a post allocates this record and its delivery event
   but no closure. *)
type 'a arrival = { ep : 'a t; seq : int; msg : 'a }

let arrive { ep; seq; msg } =
  if not (Dedup.admit ep.seen seq) then Obs.Metrics.incr ep.dup_discards
  else begin
    (* Admission control at the receive queue: above [capacity] the
       overflow callback may consume the message (receiver-not-ready
       shed); returning false admits it anyway — the callback decides
       what must never be shed (e.g. flow-control credits). *)
    if
      ep.capacity > 0
      && Sim.Channel.length ep.chan >= ep.capacity
      && (match ep.overflow with Some f -> f msg | None -> false)
    then ()
    else Sim.Channel.send ep.chan msg
  end

let post fab ~src ep ?cls ~size msg =
  let seq = ep.next_seq in
  ep.next_seq <- seq + 1;
  Fabric.send_with fab ~src ~dst:ep.node ?cls ~size arrive { ep; seq; msg }

let recv ep = Sim.Channel.recv ep.chan

let recv_then ep g = Sim.Channel.recv_then ep.chan g
let try_recv ep = Sim.Channel.try_recv ep.chan
let pending ep = Sim.Channel.length ep.chan
