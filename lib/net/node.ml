type kind = Host_cpu | Smart_nic | Wimpy_cpu

(* Per-node fabric instruments, made once per node name in a run so the
   send hot path touches record fields. *)
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
  metrics : Obs.Metrics.node;
  ins : instruments;
}

let kind_to_string = function
  | Host_cpu -> "host-cpu"
  | Smart_nic -> "smart-nic"
  | Wimpy_cpu -> "wimpy-cpu"

let same_machine a b =
  let root n = match n.attached_to with Some h -> h.id | None -> n.id in
  root a = root b

let fabric_instruments =
  Obs.Metrics.shared (fun m ->
      let c = Obs.Metrics.new_counter m in
      {
        i_tx_msgs = c "net.tx_msgs";
        i_tx_bytes = c "net.tx_bytes";
        i_fault_drops = c "net.fault_drops";
        i_fault_dups = c "net.fault_dups";
        i_fault_delays = c "net.fault_delays";
        i_fault_local_ignored = c "net.fault_local_ignored";
      })

let make ~id ~name ~kind ~attached_to =
  let metrics = Obs.Metrics.node name in
  {
    id;
    name;
    kind;
    attached_to;
    tx = Sim.Resource.create ();
    rx = Sim.Resource.create ();
    dma = Sim.Resource.create ();
    metrics;
    ins = Obs.Metrics.share metrics fabric_instruments;
  }
