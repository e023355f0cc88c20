exception Deadlock of string

open Effect.Deep

(* Every heap entry is one typed event. Each carries the trace context
   of the fiber or caller that scheduled it, and [dispatch] restores it
   before running the event, so a fiber keeps its own ambient context no
   matter how events interleave. A resumer is itself the context and
   continuation of the suspended fiber, so [Resume] and [Fail] need only
   point at it. *)
type t = {
  heap : event Heap.t;
  mutable now : int;
  mutable seq : int;
  mutable fibers : int;
  mutable failure : (bool * exn) option; (* (from_root_fiber, exn) *)
  mutable ctx : int; (* fiber-local trace context, 0 = none *)
  names : (int, string) Hashtbl.t; (* live named fibers, keyed by fiber id *)
  mutable next_fiber : int;
  mutable handler : (unit, unit) handler; (* shared by unnamed fibers *)
  mutable sleep_for : int; (* the pending [Sleep]'s duration *)
  mutable on_sleep : ((unit, unit) continuation -> unit) option;
}

and event =
  | Nop (* fills the heap's empty payload slots; never scheduled *)
  | Call of { ctx : int; f : unit -> unit }
  | Spawn of { ctx : int; name : string option; f : unit -> unit }
  | Wake of { ctx : int; k : (unit, unit) continuation }
  | Resume : { r : 'a resumer; v : 'a } -> event
  | Fail : { r : 'a resumer; e : exn } -> event

and 'a resumer = {
  mutable used : bool;
  eng : t;
  r_ctx : int;
  k : ('a, unit) continuation;
}

(* The running engine is domain-local, so independent simulations on
   sibling domains (Domains.map) never observe each other. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get current_key
let set_current v = Domain.DLS.set current_key v

let get () =
  match current () with
  | Some t -> t
  | None -> failwith "Fractos_sim.Engine: no engine is running"

let schedule_at t ~time ev =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  Heap.push t.heap ~time ~seq:t.seq ev

(* Continuations are one-shot; the [used] flag makes a second [resume]
   or [abort] a no-op. *)
let resume r v =
  if not r.used then begin
    r.used <- true;
    schedule_at r.eng ~time:r.eng.now (Resume { r; v })
  end

let abort r e =
  if not r.used then begin
    r.used <- true;
    schedule_at r.eng ~time:r.eng.now (Fail { r; e })
  end

(* What a suspending fiber hands the handler: the function of its
   continuation, already in the [Some] the handler returns, so the
   handler builds nothing per suspend. *)
type 'a waiter = (('a, unit) continuation -> unit) option

(* [Sleep] is a constant: [sleep] leaves its duration in the engine's
   [sleep_for], so performing it allocates nothing. *)
type _ Effect.t +=
  | Sleep : unit Effect.t
  | Suspend : 'a waiter -> 'a Effect.t

(* First failure wins within an origin class, but a failure coming from the
   root fiber outranks one recorded earlier by a background fiber at the
   same instant: abandoned server fibers (e.g. of a crashed controller)
   must not mask the root fiber's own error. *)
let record_failure t ~root e =
  match t.failure with
  | None -> t.failure <- Some (root, e)
  | Some (false, _) when root -> t.failure <- Some (root, e)
  | Some _ -> ()

(* One handler per engine serves every unnamed fiber. OCaml applies the
   function [effc] returns before anything else runs, so [Sleep] can hand
   back the preallocated [on_sleep], which reads the duration [sleep]
   left in [sleep_for], and a [waiter] can read the engine's clock and
   context when it runs. *)
let make_handler t =
  {
    retc = (fun () -> ());
    exnc = (fun e -> record_failure t ~root:false e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> t.on_sleep
        | Suspend w -> w
        | _ -> None);
  }

let on_sleep t k =
  let d = if t.sleep_for < 0 then 0 else t.sleep_for in
  schedule_at t ~time:(t.now + d) (Wake { ctx = t.ctx; k })

(* Named fibers (the root among them) get their own [retc]/[exnc], which
   unregister the name the deadlock report would otherwise print. *)
let exec t ?(root = false) ?name f =
  t.fibers <- t.fibers + 1;
  let fid = t.next_fiber in
  t.next_fiber <- fid + 1;
  match name with
  | None -> match_with f () t.handler
  | Some n ->
    Hashtbl.replace t.names fid n;
    let finished () = Hashtbl.remove t.names fid in
    match_with f ()
      {
        t.handler with
        retc = finished;
        exnc =
          (fun e ->
            finished ();
            record_failure t ~root e);
      }

let create () =
  let t =
    {
      heap = Heap.create ~dummy:Nop;
      now = 0;
      seq = 0;
      fibers = 0;
      failure = None;
      ctx = 0;
      names = Hashtbl.create 16;
      next_fiber = 0;
      handler = { retc = ignore; exnc = raise; effc = (fun _ -> None) };
      sleep_for = 0;
      on_sleep = None;
    }
  in
  t.handler <- make_handler t;
  t.on_sleep <- Some (on_sleep t);
  t

let dispatch t = function
  | Nop -> ()
  | Call { ctx; f } ->
    t.ctx <- ctx;
    f ()
  | Spawn { ctx; name; f } ->
    t.ctx <- ctx;
    exec t ?name f
  | Wake { ctx; k } ->
    t.ctx <- ctx;
    continue k ()
  | Resume { r; v } ->
    t.ctx <- r.r_ctx;
    continue r.k v
  | Fail { r; e } ->
    t.ctx <- r.r_ctx;
    discontinue r.k e

(* Run the heap until it is exhausted. After a failure is recorded, keep
   draining events scheduled for the *same* instant before stopping: the
   root fiber may be queued right behind the failing background fiber,
   and its own error (or completion) is the one the caller should see.
   Events at a later time never run once a failure exists. *)
let rec drain t =
  if not (Heap.is_empty t.heap) then begin
    let time = Heap.min_time t.heap in
    match t.failure with
    | Some _ when time > t.now -> ()
    | _ ->
      let ev = Heap.pop_payload t.heap in
      t.now <- time;
      (try dispatch t ev with e -> record_failure t ~root:false e);
      drain t
  end

(* Deadlock report: the historical one-liner about the root fiber, plus
   the names of any other fibers still registered (i.e. spawned with
   ?name and never finished) so the survivor — not just the victim — is
   identified. Names are sorted for determinism; one occurrence of the
   root's own name is elided since the headline already states it. *)
let raise_deadlock ~name t =
  let all =
    List.sort compare (Hashtbl.fold (fun _ n acc -> n :: acc) t.names [])
  in
  let rec drop1 = function
    | [] -> []
    | x :: tl when String.equal x name -> tl
    | x :: tl -> x :: drop1 tl
  in
  let others = drop1 all in
  let base =
    Printf.sprintf "engine quiesced at t=%s but fiber %S never finished"
      (Time.to_string t.now) name
  in
  let msg =
    if others = [] then base
    else begin
      let shown = List.filteri (fun i _ -> i < 8) others in
      let extra = List.length others - List.length shown in
      let tail = if extra > 0 then Printf.sprintf " (+%d more)" extra else "" in
      base ^ "; still blocked: "
      ^ String.concat ", " (List.map (Printf.sprintf "%S") shown)
      ^ tail
    end
  in
  raise (Deadlock msg)

let run ?(name = "main") main =
  if current () <> None then failwith "Fractos_sim.Engine: engines do not nest";
  let t = create () in
  set_current (Some t);
  let result = ref None in
  let finally () = set_current None in
  Fun.protect ~finally (fun () ->
      schedule_at t ~time:0
        (Call
           {
             ctx = 0;
             f =
               (fun () ->
                 exec t ~root:true ~name (fun () -> result := Some (main ())));
           });
      drain t;
      match t.failure with
      | Some (_, e) -> raise e
      | None -> (
        match !result with
        | Some v -> v
        | None -> raise_deadlock ~name t))

let now () = (get ()).now
let sleep d =
  (get ()).sleep_for <- d;
  Effect.perform Sleep

let sleep_until time =
  let t = now () in
  if time > t then sleep (time - t)

let spawn ?name f =
  let t = get () in
  schedule_at t ~time:t.now (Spawn { ctx = t.ctx; name; f })

let yield () = sleep 0

(* Applied by the handler at the suspend, so [get ()] is the suspending
   fiber's engine and its [ctx] the fiber's own. *)
let waiter f x =
  Some
    (fun k ->
      let t = get () in
      f x { used = false; eng = t; r_ctx = t.ctx; k })

let wait w = Effect.perform (Suspend w)
let suspend setup = wait (waiter (fun f r -> f r) setup)

let schedule d f =
  let t = get () in
  let d = if d < 0 then 0 else d in
  schedule_at t ~time:(t.now + d) (Call { ctx = t.ctx; f })

let fiber_count () = (get ()).fibers

let get_ctx () = match current () with Some t -> t.ctx | None -> 0
let set_ctx c = match current () with Some t -> t.ctx <- c | None -> ()
