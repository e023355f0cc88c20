open State

type cid = int

(* Post one syscall, returning the completion ivar. The user-side cost of
   building and posting the descriptor is charged to the calling fiber;
   the syscall itself proceeds asynchronously (Table 1: "all syscalls are
   fully asynchronous and posted into a message-passing channel"). *)
let call_async (proc : proc) ~size build =
  let iv = Sim.Ivar.create () in
  (match proc.pctrl with
  | None ->
    Sim.Ivar.fill iv
      (Error (Error.Bad_argument "process not attached to a controller"))
  | Some ctrl ->
    if not proc.alive then
      Sim.Ivar.fill iv (Error (Error.Bad_argument "process is dead"))
    else begin
      let cfg = Controller.config ctrl in
      Sim.Engine.sleep
        (Net.Config.scale_time cfg.Net.Config.scale_client
           Net.Config.proc_syscall);
      let reply = { r_ivar = iv; r_proc = proc } in
      Controller.enqueue_syscall ctrl (build reply) ~size ~src:proc.pnode
    end);
  iv

(* Synchronous veneer: post and await. *)
let call proc ~size build = Sim.Ivar.await (call_async proc ~size build)

(* Timed synchronous veneer: wraps the post-to-completion interval of one
   named syscall in a span ("sys.<name>") and the process's hoisted
   latency histogram ("syscall.<name>", interned at Process.create). *)
let timed name hist (proc : proc) ~size build =
  let t0 = Sim.Engine.now () in
  let r =
    if Obs.Span.enabled () then
      let node = proc.pnode.Net.Node.name in
      Obs.Span.with_ ~node ~name:("sys." ^ name) (fun () ->
          call proc ~size build)
    else call proc ~size build
  in
  Obs.Metrics.observe hist (Sim.Engine.now () - t0);
  r

let null proc =
  timed "null" proc.pm.pm_null proc ~size:(Wire.syscall ()) (fun reply ->
      Sys_null reply)

let memory_create proc ?(off = 0) ?len buf perms =
  let len = match len with Some l -> l | None -> Membuf.size buf - off in
  timed "memory_create" proc.pm.pm_mem_create proc ~size:(Wire.syscall ())
    (fun reply -> Sys_mem_create { buf; off; len; perms; reply })

let memory_diminish proc cid ~off ~len ~drop =
  timed "memory_diminish" proc.pm.pm_mem_diminish proc ~size:(Wire.syscall ())
    (fun reply -> Sys_mem_diminish { cid; off; len; drop; reply })

let memory_copy proc ~src ~dst =
  timed "memory_copy" proc.pm.pm_mem_copy proc ~size:(Wire.syscall ~caps:2 ())
    (fun reply -> Sys_mem_copy { src; dst; reply })

let memory_copy_async proc ~src ~dst =
  call_async proc ~size:(Wire.syscall ~caps:2 ()) (fun reply ->
      Sys_mem_copy { src; dst; reply })

let request_create proc ~tag ?(imms = []) ?(caps = []) () =
  timed "request_create" proc.pm.pm_req_create proc
    ~size:(Wire.syscall ~imms ~caps:(List.length caps) ())
    (fun reply -> Sys_req_create { tag; imms; caps; reply })

let request_derive proc parent ?(imms = []) ?(caps = []) () =
  timed "request_derive" proc.pm.pm_req_derive proc
    ~size:(Wire.syscall ~imms ~caps:(1 + List.length caps) ())
    (fun reply -> Sys_req_derive { parent; imms; caps; reply })

let request_invoke proc cid =
  timed "request_invoke" proc.pm.pm_req_invoke proc
    ~size:(Wire.syscall ~caps:1 ()) (fun reply -> Sys_req_invoke { cid; reply })

let request_invoke_async proc cid =
  call_async proc ~size:(Wire.syscall ~caps:1 ()) (fun reply ->
      Sys_req_invoke { cid; reply })

let request_invoke_timeout proc ~timeout cid =
  let t0 = Sim.Engine.now () in
  let iv = request_invoke_async proc cid in
  let r =
    match Sim.Ivar.await_timeout iv ~timeout with
    | Some r -> r
    | None -> Error Error.Timeout
  in
  Obs.Metrics.observe proc.pm.pm_req_invoke (Sim.Engine.now () - t0);
  r

let credit (proc : proc) =
  match proc.pctrl with
  | None -> ()
  | Some ctrl ->
    Controller.enqueue_syscall ctrl (Sys_credit proc) ~size:Wire.credit
      ~src:proc.pnode

let receive (proc : proc) =
  let d = Sim.Channel.recv proc.inbox in
  credit proc;
  d

let try_receive (proc : proc) =
  match Sim.Channel.try_recv proc.inbox with
  | Some d ->
    credit proc;
    Some d
  | None -> None

let cap_create_revtree proc cid =
  timed "cap_create_revtree" proc.pm.pm_revtree proc
    ~size:(Wire.syscall ~caps:1 ()) (fun reply -> Sys_revtree_create { cid; reply })

let cap_revoke proc cid =
  timed "cap_revoke" proc.pm.pm_revoke proc ~size:(Wire.syscall ~caps:1 ())
    (fun reply -> Sys_revoke { cid; reply })

let monitor_delegate proc cid ~cb =
  timed "monitor_delegate" proc.pm.pm_mon_delegate proc
    ~size:(Wire.syscall ~caps:1 ()) (fun reply ->
      Sys_mon_delegate { cid; cb; reply })

let monitor_receive proc cid ~cb =
  timed "monitor_receive" proc.pm.pm_mon_receive proc
    ~size:(Wire.syscall ~caps:1 ()) (fun reply ->
      Sys_mon_receive { cid; cb; reply })

let monitor_next (proc : proc) = Sim.Channel.recv proc.monitor_box
let try_monitor_next (proc : proc) = Sim.Channel.try_recv proc.monitor_box
