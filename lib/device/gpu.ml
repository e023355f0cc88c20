module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Obs = Fractos_obs

type kernel = {
  k_name : string;
  k_cost : items:int -> Sim.Time.t;
  k_run : bufs:Core.Membuf.t list -> imms:int list -> (unit, string) result;
}

type t = {
  gnode : Net.Node.t;
  config : Net.Config.t;
  engine : Sim.Resource.t;
  mutable mem_free : int;
  allocations : (int, int) Hashtbl.t; (* membuf id -> size *)
  kernels : (string, kernel) Hashtbl.t;
  exec_hist : Obs.Metrics.histogram Lazy.t; (* interned on first launch *)
}

(* Every timed GPU step goes through [dt], so the what-if device factor
   covers allocation, kernel load and execution alike. *)
let dt config d = Net.Config.scale_time config.Net.Config.scale_device d

let create ~node ~config ~mem_bytes =
  {
    gnode = node;
    config;
    engine = Sim.Resource.create ();
    mem_free = mem_bytes;
    allocations = Hashtbl.create 16;
    kernels = Hashtbl.create 8;
    exec_hist = lazy (Obs.Metrics.histogram ~node:node.Net.Node.name "gpu.exec");
  }

let node t = t.gnode

let alloc t size =
  Sim.Engine.sleep (dt t.config t.config.Net.Config.gpu_alloc);
  if size < 0 then Error "negative size"
  else if size > t.mem_free then Error "GPU out of memory"
  else begin
    t.mem_free <- t.mem_free - size;
    let buf = Core.Membuf.create ~node:t.gnode size in
    Hashtbl.replace t.allocations buf.Core.Membuf.id size;
    Ok buf
  end

let free t buf =
  Sim.Engine.sleep (dt t.config t.config.Net.Config.gpu_alloc);
  match Hashtbl.find_opt t.allocations buf.Core.Membuf.id with
  | Some size ->
    Hashtbl.remove t.allocations buf.Core.Membuf.id;
    t.mem_free <- t.mem_free + size
  | None -> ()

let mem_free_bytes t = t.mem_free

let load_kernel t kernel =
  Sim.Engine.sleep (dt t.config t.config.Net.Config.gpu_alloc);
  Hashtbl.replace t.kernels kernel.k_name kernel

let exec t k ~items ~bufs ~imms =
  let duration = dt t.config (t.config.Net.Config.gpu_launch + k.k_cost ~items) in
  Sim.Resource.use t.engine ~duration;
  k.k_run ~bufs ~imms

let launch t ~name ~items ~bufs ~imms =
  match Hashtbl.find_opt t.kernels name with
  | None -> Error (Printf.sprintf "unknown kernel %S" name)
  | Some k ->
    let t0 = Sim.Engine.now () in
    let r =
      if Obs.Span.enabled () then
        Obs.Span.with_ ~node:t.gnode.Net.Node.name ~name:"gpu.exec"
          ~attrs:[ ("kernel", name); ("items", string_of_int items) ]
          (fun () -> exec t k ~items ~bufs ~imms)
      else exec t k ~items ~bufs ~imms
    in
    Obs.Metrics.observe (Lazy.force t.exec_hist) (Sim.Engine.now () - t0);
    r
