type kind = Host_cpu | Smart_nic | Wimpy_cpu

(* Per-node fabric instruments, interned once at node creation so the
   send hot path touches record fields instead of the metrics registry's
   hashtable (handles stay valid across Obs.Metrics.reset). *)
type instruments = {
  i_tx_msgs : Obs.Metrics.counter;
  i_tx_bytes : Obs.Metrics.counter;
  i_fault_drops : Obs.Metrics.counter;
  i_fault_dups : Obs.Metrics.counter;
  i_fault_delays : Obs.Metrics.counter;
  i_fault_local_ignored : Obs.Metrics.counter;
}

type t = {
  id : int;
  name : string;
  kind : kind;
  attached_to : t option;
  tx : Sim.Resource.t;
  rx : Sim.Resource.t;
  dma : Sim.Resource.t;
  ins : instruments;
}

let kind_to_string = function
  | Host_cpu -> "host-cpu"
  | Smart_nic -> "smart-nic"
  | Wimpy_cpu -> "wimpy-cpu"

let same_machine a b =
  let root n = match n.attached_to with Some h -> h.id | None -> n.id in
  root a = root b

let make ~id ~name ~kind ~attached_to =
  {
    id;
    name;
    kind;
    attached_to;
    tx = Sim.Resource.create ();
    rx = Sim.Resource.create ();
    dma = Sim.Resource.create ();
    ins =
      {
        i_tx_msgs = Obs.Metrics.counter ~node:name "net.tx_msgs";
        i_tx_bytes = Obs.Metrics.counter ~node:name "net.tx_bytes";
        i_fault_drops = Obs.Metrics.counter ~node:name "net.fault_drops";
        i_fault_dups = Obs.Metrics.counter ~node:name "net.fault_dups";
        i_fault_delays = Obs.Metrics.counter ~node:name "net.fault_delays";
        i_fault_local_ignored =
          Obs.Metrics.counter ~node:name "net.fault_local_ignored";
      };
  }
