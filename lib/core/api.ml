open State

type cid = int

(* A fresh reply path for one synchronous syscall of [proc], which the
   waiting fiber claims ([call]). Each call builds its message around
   one, so posting takes the message itself rather than a closure that
   builds it. *)
let reply_of (proc : proc) = { r_proc = proc; r_to = Unclaimed }

(* Post syscall [msg]: [Ok ()], or the error that keeps it from being
   posted. The user-side cost of building and posting the descriptor is
   charged to the calling fiber; the syscall itself proceeds
   asynchronously (Table 1: "all syscalls are fully asynchronous and
   posted into a message-passing channel"). *)
let post (proc : proc) ~size msg =
  match proc.pctrl with
  | None -> Error (Error.Bad_argument "process not attached to a controller")
  | Some ctrl ->
    if not proc.alive then Error (Error.Bad_argument "process is dead")
    else begin
      let cfg = Controller.config ctrl in
      Sim.Engine.sleep
        (Net.Config.scale_time cfg.Net.Config.scale_client
           Net.Config.proc_syscall);
      Controller.enqueue_syscall ctrl msg ~size ~src:proc.pnode;
      Ok ()
    end

(* Asynchronous veneer: post a syscall whose reply path fills [iv], and
   return [iv]. *)
let call_async proc ~size msg iv =
  (match post proc ~size msg with
  | Ok () -> ()
  | Error e -> Sim.Ivar.fill iv (Error e));
  iv

(* The waiting fiber takes its reply path: the answer resumes it. *)
let claim (reply : _ reply) r =
  match reply.r_to with
  | Answered v -> Sim.Engine.resume r v
  | Unclaimed | Fiber _ | Ivar _ -> reply.r_to <- Fiber r

(* Synchronous veneer: post and wait for the answer. *)
let call proc ~size msg reply =
  match post proc ~size msg with
  | Ok () -> Sim.Engine.suspend_with claim reply
  | Error e -> Error e

(* Timed synchronous veneer: wraps the post-to-completion interval of one
   named syscall in a span ("sys.<name>") and the process's hoisted
   latency histogram ("syscall.<name>", taken at Process.create). *)
let timed name hist (proc : proc) ~size msg reply =
  let t0 = Sim.Engine.now () in
  let r =
    if Obs.Span.enabled () then
      let node = proc.pnode.Net.Node.name in
      Obs.Span.with_ ~node ~name:("sys." ^ name) (fun () ->
          call proc ~size msg reply)
    else call proc ~size msg reply
  in
  Obs.Metrics.observe hist (Sim.Engine.now () - t0);
  r

let null proc =
  let reply = reply_of proc in
  timed "null" proc.pm.pm_null proc ~size:(Wire.syscall ()) (Sys_null reply)
    reply

let memory_create proc ?(off = 0) ?len buf perms =
  let len = match len with Some l -> l | None -> Membuf.size buf - off in
  let reply = reply_of proc in
  timed "memory_create" proc.pm.pm_mem_create proc ~size:(Wire.syscall ())
    (Sys_mem_create { buf; off; len; perms; reply })
    reply

let memory_diminish proc cid ~off ~len ~drop =
  let reply = reply_of proc in
  timed "memory_diminish" proc.pm.pm_mem_diminish proc ~size:(Wire.syscall ())
    (Sys_mem_diminish { cid; off; len; drop; reply })
    reply

let memory_copy proc ~src ~dst =
  let reply = reply_of proc in
  timed "memory_copy" proc.pm.pm_mem_copy proc ~size:(Wire.syscall ~caps:2 ())
    (Sys_mem_copy { src; dst; reply })
    reply

let memory_copy_async proc ~src ~dst =
  let iv = Sim.Ivar.create () in
  call_async proc ~size:(Wire.syscall ~caps:2 ())
    (Sys_mem_copy { src; dst; reply = { r_proc = proc; r_to = Ivar iv } })
    iv

let request_create proc ~tag ?(imms = []) ?(caps = []) () =
  let reply = reply_of proc in
  timed "request_create" proc.pm.pm_req_create proc
    ~size:(Wire.syscall ~imms ~caps:(List.length caps) ())
    (Sys_req_create { tag; imms; caps; reply })
    reply

let request_derive proc parent ?(imms = []) ?(caps = []) () =
  let reply = reply_of proc in
  timed "request_derive" proc.pm.pm_req_derive proc
    ~size:(Wire.syscall ~imms ~caps:(1 + List.length caps) ())
    (Sys_req_derive { parent; imms; caps; reply })
    reply

let request_invoke proc cid =
  let reply = reply_of proc in
  timed "request_invoke" proc.pm.pm_req_invoke proc
    ~size:(Wire.syscall ~caps:1 ())
    (Sys_req_invoke { cid; reply })
    reply

let request_invoke_async proc cid =
  let iv = Sim.Ivar.create () in
  call_async proc ~size:(Wire.syscall ~caps:1 ())
    (Sys_req_invoke { cid; reply = { r_proc = proc; r_to = Ivar iv } })
    iv

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
    Controller.enqueue_syscall ctrl proc.pcredit ~size:Wire.credit
      ~src:proc.pnode

let receive (proc : proc) =
  let d = Sim.Channel.recv proc.inbox in
  credit proc;
  d

let cap_create_revtree proc cid =
  let reply = reply_of proc in
  timed "cap_create_revtree" proc.pm.pm_revtree proc
    ~size:(Wire.syscall ~caps:1 ())
    (Sys_revtree_create { cid; reply })
    reply

let cap_revoke proc cid =
  let reply = reply_of proc in
  timed "cap_revoke" proc.pm.pm_revoke proc ~size:(Wire.syscall ~caps:1 ())
    (Sys_revoke { cid; reply })
    reply

let monitor_delegate proc cid ~cb =
  let reply = reply_of proc in
  timed "monitor_delegate" proc.pm.pm_mon_delegate proc
    ~size:(Wire.syscall ~caps:1 ())
    (Sys_mon_delegate { cid; cb; reply })
    reply

let monitor_receive proc cid ~cb =
  let reply = reply_of proc in
  timed "monitor_receive" proc.pm.pm_mon_receive proc
    ~size:(Wire.syscall ~caps:1 ())
    (Sys_mon_receive { cid; cb; reply })
    reply

let monitor_next (proc : proc) = Sim.Channel.recv proc.monitor_box
