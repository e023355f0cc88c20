module Sim = Fractos_sim
module Net = Fractos_net

type t = {
  fabric : Net.Fabric.t;
  client : Net.Node.t;
  server : Net.Node.t;
  backing : Nvmeof.t;
}

let mount fabric ~client ~server ~backing = { fabric; client; server; backing }

let kernel_path () = Sim.Engine.sleep Net.Config.kernel_io_path

let rpc_to_server t =
  kernel_path ();
  Net.Fabric.transfer t.fabric ~src:t.client ~dst:t.server
    ~cls:Net.Stats.Control ~size:120 ()

let open_rpc t =
  rpc_to_server t;
  kernel_path ();
  Net.Fabric.transfer t.fabric ~src:t.server ~dst:t.client
    ~cls:Net.Stats.Control ~size:96 ()

let read t ~off ~len =
  rpc_to_server t;
  kernel_path ();
  (* server pulls from its NVMe-oF backing store *)
  match Nvmeof.read t.backing ~off ~len with
  | Error _ as e -> e
  | Ok data ->
    (* data proxied back to the client *)
    Net.Fabric.transfer_chunked t.fabric ~src:t.server ~dst:t.client
      ~cls:Net.Stats.Data ~size:len ();
    Ok data
