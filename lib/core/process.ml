open State

type t = proc

let create fabric ~node name =
  let h n = Obs.Metrics.histogram ~node:node.Net.Node.name ("syscall." ^ n) in
  let rec p =
    {
      pid = Net.Fabric.next_pid fabric;
      pname = name;
      pnode = node;
      pctrl = None;
      inbox = Sim.Channel.create ();
      monitor_box = Sim.Channel.create ();
      alive = true;
      pm =
        {
          pm_null = h "null";
          pm_mem_create = h "memory_create";
          pm_mem_diminish = h "memory_diminish";
          pm_mem_copy = h "memory_copy";
          pm_req_create = h "request_create";
          pm_req_derive = h "request_derive";
          pm_req_invoke = h "request_invoke";
          pm_revtree = h "cap_create_revtree";
          pm_revoke = h "cap_revoke";
          pm_mon_delegate = h "monitor_delegate";
          pm_mon_receive = h "monitor_receive";
        };
      pcredit = Sys_credit p;
    }
  in
  p

let reset_ids () = ()
let alloc t size = Membuf.create ~node:t.pnode size
let name t = t.pname
let node t = t.pnode
let controller t = t.pctrl
