exception Deadlock of string

open Effect.Deep

(* Pending events live unboxed in the engine's slot arrays: slot [s]
   holds an event's kind, the trace context [dispatch] restores before
   running it, and at most two payload fields, [a.(s)] and [b.(s)]. The
   heap orders slot ids by [(time, seq)], and freed slots go back on the
   [free] stack, so scheduling an event allocates nothing once the pool
   has grown to the working set. A resumer is itself the context and
   continuation of the suspended fiber, so [Resume] and [Fail] need only
   point at it. [Call_with] and [Spawn_with] carry a function and its
   argument instead of a closure over them, and so does [Relay], whose
   dispatch pushes that [Call_with] at its own instant.

   The payload arrays are [Obj.t array]s because most kinds are
   existential: the kind stored in a slot determines its payload types,
   as listed below, and only the typed pushes and [dispatch] convert
   between them and [Obj.t]. The arrays are made with an immediate
   ([empty]), never a float, so they are never flat float arrays and a
   boxed float payload is stored as a pointer. *)
type kind =
  | Wake (* a: (unit, unit) continuation *)
  | Call (* a: unit -> unit *)
  | Call_with (* a: 'x -> unit; b: 'x *)
  | Relay (* a: 'x -> unit; b: 'x, pushed on as a [Call_with] *)
  | Spawn (* a: unit -> unit; b: string option, the fiber's name *)
  | Spawn_with (* a: 'x -> unit; b: 'x *)
  | Resume (* a: 'x resumer; b: 'x *)
  | Fail (* a: 'x resumer; b: exn *)

type t = {
  heap : Heap.t;
  mutable kind : kind array;
  mutable ev_ctx : int array;
  mutable a : Obj.t array;
  mutable b : Obj.t array;
  mutable free : int array; (* free slot ids, a stack of [nfree] *)
  mutable nfree : int;
  mutable now : int;
  mutable seq : int;
  mutable fibers : int;
  mutable events : int; (* events dispatched *)
  mutable failure : (bool * exn) option; (* (from_root_fiber, exn) *)
  mutable ctx : int; (* fiber-local trace context, 0 = none *)
  names : (int, string) Hashtbl.t; (* live named fibers, keyed by fiber id *)
  mutable next_fiber : int;
  mutable handler : (unit, unit) handler; (* shared by unnamed fibers *)
  mutable sleep_for : int; (* the pending [Sleep]'s duration *)
  mutable on_sleep : ((unit, unit) continuation -> unit) option;
}

and 'a resumer = {
  mutable used : bool;
  eng : t;
  r_ctx : int;
  k : ('a, unit) continuation;
}

let empty = Obj.repr 0

(* The running engine, if any: engines do not nest. *)
let current : t option ref = ref None

let get () =
  match !current with
  | Some t -> t
  | None -> failwith "Fractos_sim.Engine: no engine is running"

(* The pool grows by doubling, as the heap does. It only grows when
   every slot is taken, so the new slots [n .. 2n - 1] are all the free
   ones. *)
let grow t =
  let n = Array.length t.kind in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.kind <- extend t.kind Wake;
  t.ev_ctx <- extend t.ev_ctx 0;
  t.a <- extend t.a empty;
  t.b <- extend t.b empty;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.nfree <- n

(* Take a free slot for an event of [kind] with payloads [a] and [b]
   ([empty] for a one-field kind), and queue it at [time] (never before
   [now]). The typed pushes below are its only callers. A slot id on the
   free stack is below the pool's length, so the slot accesses here and
   in [dispatch] skip the bounds checks. *)
let enqueue t ~time kind ctx a b =
  if t.nfree = 0 then grow t;
  let s = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  Array.unsafe_set t.kind s kind;
  Array.unsafe_set t.ev_ctx s ctx;
  Array.unsafe_set t.a s a;
  Array.unsafe_set t.b s b;
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  Heap.push t.heap ~time ~seq:t.seq s

let push_wake t ~time ctx (k : (unit, unit) continuation) =
  enqueue t ~time Wake ctx (Obj.repr k) empty

let push_call t ~time ctx (f : unit -> unit) =
  enqueue t ~time Call ctx (Obj.repr f) empty

let push_call_with t ~time ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time Call_with ctx (Obj.repr g) (Obj.repr x)

let push_relay t ~time ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time Relay ctx (Obj.repr g) (Obj.repr x)

let push_spawn t ctx (name : string option) (f : unit -> unit) =
  enqueue t ~time:t.now Spawn ctx (Obj.repr f) (Obj.repr name)

let push_spawn_with t ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time:t.now Spawn_with ctx (Obj.repr g) (Obj.repr x)

let push_resume (r : 'x resumer) (v : 'x) =
  let t = r.eng in
  enqueue t ~time:t.now Resume r.r_ctx (Obj.repr r) (Obj.repr v)

let push_fail (r : 'x resumer) (e : exn) =
  let t = r.eng in
  enqueue t ~time:t.now Fail r.r_ctx (Obj.repr r) (Obj.repr e)

(* Continuations are one-shot; the [used] flag makes a second [resume]
   or [abort] a no-op. *)
let resume r v =
  if not r.used then begin
    r.used <- true;
    push_resume r v
  end

let abort r e =
  if not r.used then begin
    r.used <- true;
    push_fail r e
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
  push_wake t ~time:(t.now + d) t.ctx k

let new_fiber t =
  t.fibers <- t.fibers + 1;
  let fid = t.next_fiber in
  t.next_fiber <- fid + 1;
  fid

(* Named fibers (the root among them) get their own [retc]/[exnc], which
   unregister the name the deadlock report would otherwise print. *)
let exec t ?(root = false) ?name f =
  let fid = new_fiber t in
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

let initial_slots = 64

let create () =
  let t =
    {
      heap = Heap.create ();
      kind = Array.make initial_slots Wake;
      ev_ctx = Array.make initial_slots 0;
      a = Array.make initial_slots empty;
      b = Array.make initial_slots empty;
      free = Array.init initial_slots (fun i -> initial_slots - 1 - i);
      nfree = initial_slots;
      now = 0;
      seq = 0;
      fibers = 0;
      events = 0;
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

(* Read slot [s], clear its payload and free it before running the
   event, so a dispatched event's closure, argument or continuation is
   never retained, and an event that raises leaks no slot. *)
let dispatch t s =
  let kind = Array.unsafe_get t.kind s
  and a = Array.unsafe_get t.a s
  and b = Array.unsafe_get t.b s in
  t.ctx <- Array.unsafe_get t.ev_ctx s;
  Array.unsafe_set t.a s empty;
  Array.unsafe_set t.b s empty;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  match kind with
  | Wake -> continue (Obj.obj a : (unit, unit) continuation) ()
  | Call -> (Obj.obj a : unit -> unit) ()
  | Call_with -> (Obj.obj a : Obj.t -> unit) b
  | Relay -> push_call_with t ~time:t.now t.ctx (Obj.obj a : Obj.t -> unit) b
  | Spawn -> exec t ?name:(Obj.obj b : string option) (Obj.obj a : unit -> unit)
  | Spawn_with ->
    ignore (new_fiber t : int);
    match_with (Obj.obj a : Obj.t -> unit) b t.handler
  | Resume -> continue (Obj.obj a : Obj.t resumer).k b
  | Fail -> discontinue (Obj.obj a : Obj.t resumer).k (Obj.obj b : exn)

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
      let s = Heap.pop t.heap in
      t.now <- time;
      t.events <- t.events + 1;
      (try dispatch t s with e -> record_failure t ~root:false e);
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
  if Option.is_some !current then
    failwith "Fractos_sim.Engine: engines do not nest";
  let t = create () in
  current := Some t;
  let result = ref None in
  let finally () = current := None in
  Fun.protect ~finally (fun () ->
      push_call t ~time:0 0 (fun () ->
          exec t ~root:true ~name (fun () -> result := Some (main ())));
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
  push_spawn t t.ctx name f

let spawn_with g x =
  let t = get () in
  push_spawn_with t t.ctx g x

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
  push_call t ~time:(t.now + d) t.ctx f

let schedule_with d g x =
  let t = get () in
  let d = if d < 0 then 0 else d in
  push_call_with t ~time:(t.now + d) t.ctx g x

let relay_with d g x =
  let t = get () in
  let d = if d < 0 then 0 else d in
  push_relay t ~time:(t.now + d) t.ctx g x

let wake_with ctx g x =
  let t = get () in
  push_call_with t ~time:t.now ctx g x

let fiber_count () = (get ()).fibers
let event_count () = (get ()).events

let get_ctx () = match !current with Some t -> t.ctx | None -> 0
let set_ctx c = match !current with Some t -> t.ctx <- c | None -> ()
