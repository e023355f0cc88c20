type 'a t = {
  name : string;
  node : Node.t;
  chan : 'a Sim.Channel.t;
  mutable next_seq : int;
  seen : Dedup.t;
  dup_discards : Obs.Metrics.counter;
  capacity : int; (* 0 = unbounded *)
  mutable overflow : ('a -> bool) option;
  arrive : 'a -> int -> unit; (* [arrive ep], built once *)
}

(* Sliding dedup window, modeling an RDMA RC endpoint's PSN check: each
   posted message carries a sender-assigned sequence number, and a second
   delivery of an already-seen number (a duplicated fabric message) is
   discarded at the receiver. *)
let window = 1024

(* A posted message at its arrival instant, with its sequence number. *)
let arrive ep msg seq =
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

(* One [net.dup_discards] per node, shared by its endpoints *)
let dup_discards =
  Obs.Metrics.shared (fun m -> Obs.Metrics.new_counter m "net.dup_discards")

let create ~node ?(capacity = 0) name =
  let rec ep =
    {
      name;
      node;
      chan = Sim.Channel.create ();
      next_seq = 0;
      seen = Dedup.create ~window;
      dup_discards = Obs.Metrics.share node.Node.metrics dup_discards;
      capacity;
      overflow = None;
      arrive = (fun msg seq -> arrive ep msg seq);
    }
  in
  ep

let set_overflow ep f = ep.overflow <- Some f

(* The delivery event carries the endpoint's own arrival step, the
   message and its sequence number, so a post allocates nothing beyond
   the message; a duplicate carries the same number. *)
let post fab ~src ep ?cls ~size msg =
  let seq = ep.next_seq in
  ep.next_seq <- seq + 1;
  Fabric.send_with_n fab ~src ~dst:ep.node ?cls ~size ep.arrive msg seq

let recv_then ep g = Sim.Channel.recv_then ep.chan g
let pending ep = Sim.Channel.length ep.chan
