open State

type t = proc

(* The node's "syscall.*" histograms, shared by its processes *)
let syscall_histograms =
  Obs.Metrics.shared (fun m ->
      let h = Obs.Metrics.new_histogram m in
      {
        pm_null = h "syscall.null";
        pm_mem_create = h "syscall.memory_create";
        pm_mem_diminish = h "syscall.memory_diminish";
        pm_mem_copy = h "syscall.memory_copy";
        pm_req_create = h "syscall.request_create";
        pm_req_derive = h "syscall.request_derive";
        pm_req_invoke = h "syscall.request_invoke";
        pm_revtree = h "syscall.cap_create_revtree";
        pm_revoke = h "syscall.cap_revoke";
        pm_mon_delegate = h "syscall.monitor_delegate";
        pm_mon_receive = h "syscall.monitor_receive";
      })

let create fabric ~node name =
  let rec p =
    {
      pid = Net.Fabric.next_pid fabric;
      pname = name;
      pnode = node;
      pctrl = None;
      inbox = Sim.Channel.create ();
      monitor_box = Sim.Channel.create ();
      alive = true;
      pm = Obs.Metrics.share node.Net.Node.metrics syscall_histograms;
      pcredit = Sys_credit p;
    }
  in
  p

let reset_ids () = ()
let alloc t size = Membuf.create ~node:t.pnode size
let name t = t.pname
let node t = t.pnode
let controller t = t.pctrl
