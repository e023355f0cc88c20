exception Deadlock of string

open Effect.Deep

(* Pending events live unboxed in the engine's slot arrays: slot [s]
   holds an event's kind, the trace context [dispatch] restores before
   running it, at most two payload fields, [a.(s)] and [b.(s)], and an
   int, [n.(s)], which only [Call_with_n] reads. An event due later
   than [now] queues its slot id in the heap, ordered by [(time, seq)];
   one due at [now] goes to the [lane], a FIFO ring of slot ids. Freed
   slots go back on the [free] stack, so scheduling an event allocates
   nothing once the pool and the queues have grown to the working set.
   A resumer is itself the context and continuation of the suspended
   fiber, so [Resume] and [Fail] need only point at it, and a [Resume]
   may run under another context than the fiber's own ([resume_in]).
   [Call_with] and [Spawn_with] carry a function and its argument
   instead of a closure over them, and so does [Relay], whose dispatch
   re-queues its slot on the lane as that [Call_with]; [Call_with_n]
   carries an int beside them, such as a message's sequence number.

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
  | Call_with_n (* a: 'x -> int -> unit; b: 'x; n *)
  | Relay (* a: 'x -> unit; b: 'x, re-queued as a [Call_with] *)
  | Spawn (* a: unit -> unit; b: string option, the fiber's name *)
  | Spawn_with (* a: 'x -> unit; b: 'x *)
  | Resume (* a: 'x resumer; b: 'x *)
  | Fail (* a: 'x resumer; b: exn *)

type t = {
  heap : Heap.t;
  mutable lane : int array; (* a ring of [nlane] slot ids from [lhead] *)
  mutable lhead : int;
  mutable nlane : int;
  mutable kind : kind array;
  mutable ev_ctx : int array;
  mutable a : Obj.t array;
  mutable b : Obj.t array;
  mutable n : int array;
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
  mutable park_g : Obj.t;
      (* the pending [Suspend]'s function, ['x -> 'a resumer -> unit] *)
  mutable park_x : Obj.t; (* and its argument, ['x] *)
  mutable on_park : ((Obj.t, unit) continuation -> unit) option;
}

and 'a resumer = {
  mutable used : bool;
  eng : t;
  r_ctx : int;
  k : ('a, unit) continuation;
}

let empty = Obj.repr 0

(* Value slots for a polymorphic ring that must empty a slot it takes
   from without a value of ['a] at hand ([Channel]). Like the event
   payloads, they are made with an immediate, so they are never flat
   float arrays, and an empty slot holds [empty]. *)
type 'a slots = Obj.t array

let slots n : 'a slots = Array.make n empty
let set_slot (a : 'a slots) i (v : 'a) = a.(i) <- Obj.repr v

let take_slot (a : 'a slots) i : 'a =
  let v = a.(i) in
  a.(i) <- empty;
  Obj.obj v

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
  t.n <- extend t.n 0;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.nfree <- n

(* A ring of power-of-two length, doubled and unrolled to 0 when full. *)
let lane_push t s =
  let len = Array.length t.lane and h = t.lhead in
  if t.nlane = len then begin
    let l = Array.make (2 * len) 0 in
    Array.blit t.lane h l 0 (len - h);
    Array.blit t.lane 0 l (len - h) h;
    t.lane <- l;
    t.lhead <- 0
  end;
  t.lane.((t.lhead + t.nlane) land (Array.length t.lane - 1)) <- s;
  t.nlane <- t.nlane + 1

let lane_pop t =
  let s = t.lane.(t.lhead) in
  t.lhead <- (t.lhead + 1) land (Array.length t.lane - 1);
  t.nlane <- t.nlane - 1;
  s

(* Take a free slot for an event of [kind] with payloads [a], [b] and
   [n] ([empty] and 0 for the fields a kind does not read), and queue it
   at [time], on the lane if that is [now] or before. The typed pushes
   below are its only callers. A slot id on the free stack is below the
   pool's length, so the slot accesses here and in [dispatch] skip the
   bounds checks. *)
let enqueue_n t ~time kind ctx a b n =
  if t.nfree = 0 then grow t;
  let s = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  Array.unsafe_set t.kind s kind;
  Array.unsafe_set t.ev_ctx s ctx;
  Array.unsafe_set t.a s a;
  Array.unsafe_set t.b s b;
  Array.unsafe_set t.n s n;
  if time <= t.now then lane_push t s
  else begin
    t.seq <- t.seq + 1;
    Heap.push t.heap ~time ~seq:t.seq s
  end

let enqueue t ~time kind ctx a b = enqueue_n t ~time kind ctx a b 0

let push_wake t ~time ctx (k : (unit, unit) continuation) =
  enqueue t ~time Wake ctx (Obj.repr k) empty

let push_call t ~time ctx (f : unit -> unit) =
  enqueue t ~time Call ctx (Obj.repr f) empty

let push_call_with t ~time ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time Call_with ctx (Obj.repr g) (Obj.repr x)

let push_call_with_n t ~time ctx (g : 'x -> int -> unit) (x : 'x) n =
  enqueue_n t ~time Call_with_n ctx (Obj.repr g) (Obj.repr x) n

let push_relay t ~time ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time Relay ctx (Obj.repr g) (Obj.repr x)

let push_spawn t ctx (name : string option) (f : unit -> unit) =
  enqueue t ~time:t.now Spawn ctx (Obj.repr f) (Obj.repr name)

let push_spawn_with t ctx (g : 'x -> unit) (x : 'x) =
  enqueue t ~time:t.now Spawn_with ctx (Obj.repr g) (Obj.repr x)

let push_resume ctx (r : 'x resumer) (v : 'x) =
  let t = r.eng in
  enqueue t ~time:t.now Resume ctx (Obj.repr r) (Obj.repr v)

let push_fail (r : 'x resumer) (e : exn) =
  let t = r.eng in
  enqueue t ~time:t.now Fail r.r_ctx (Obj.repr r) (Obj.repr e)

(* Continuations are one-shot; the [used] flag makes a second [resume]
   or [abort] a no-op. *)
let resume_in ctx r v =
  if not r.used then begin
    r.used <- true;
    push_resume ctx r v
  end

let resume r v = resume_in r.r_ctx r v

let abort r e =
  if not r.used then begin
    r.used <- true;
    push_fail r e
  end

(* Both effects are constants, so performing one allocates nothing:
   [sleep] leaves its duration in the engine's [sleep_for], and
   [suspend_with] its function and argument in [park_g] and [park_x]. *)
type _ Effect.t += Sleep : unit Effect.t | Suspend : 'a Effect.t

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
   left in [sleep_for], and [Suspend] the preallocated [on_park], which
   reads [park_g] and [park_x] and the suspending fiber's context. *)
let make_handler t =
  {
    retc = (fun () -> ());
    exnc = (fun e -> record_failure t ~root:false e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> t.on_sleep
        | Suspend ->
          (Obj.magic t.on_park : ((a, unit) continuation -> unit) option)
        | _ -> None);
  }

let on_sleep t k =
  let d = if t.sleep_for < 0 then 0 else t.sleep_for in
  push_wake t ~time:(t.now + d) t.ctx k

(* The handler applies this at once, so [park_g] and [park_x] are still
   the suspending fiber's; they are cleared before [g] runs, so nothing
   parked is retained. *)
let on_park t (k : (Obj.t, unit) continuation) =
  let g = (Obj.obj t.park_g : Obj.t -> Obj.t resumer -> unit)
  and x = t.park_x in
  t.park_g <- empty;
  t.park_x <- empty;
  g x { used = false; eng = t; r_ctx = t.ctx; k }

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
      lane = Array.make initial_slots 0;
      lhead = 0;
      nlane = 0;
      kind = Array.make initial_slots Wake;
      ev_ctx = Array.make initial_slots 0;
      a = Array.make initial_slots empty;
      b = Array.make initial_slots empty;
      n = Array.make initial_slots 0;
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
      park_g = empty;
      park_x = empty;
      on_park = None;
    }
  in
  t.handler <- make_handler t;
  t.on_sleep <- Some (on_sleep t);
  t.on_park <- Some (on_park t);
  t

(* Read slot [s], clear its payload and free it before running the
   event, so a dispatched event's closure, argument or continuation is
   never retained, and an event that raises leaks no slot. A [Relay]
   instead keeps its slot and payload and queues them on the lane as
   its second event, a [Call_with] under the same context. *)
let dispatch t s =
  let kind = Array.unsafe_get t.kind s in
  t.ctx <- Array.unsafe_get t.ev_ctx s;
  if kind == Relay then begin
    Array.unsafe_set t.kind s Call_with;
    lane_push t s
  end
  else begin
    let a = Array.unsafe_get t.a s
    and b = Array.unsafe_get t.b s
    and n = Array.unsafe_get t.n s in
    Array.unsafe_set t.a s empty;
    Array.unsafe_set t.b s empty;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1;
    match kind with
    | Wake -> continue (Obj.obj a : (unit, unit) continuation) ()
    | Call -> (Obj.obj a : unit -> unit) ()
    | Call_with | Relay -> (Obj.obj a : Obj.t -> unit) b
    | Call_with_n -> (Obj.obj a : Obj.t -> int -> unit) b n
    | Spawn ->
      exec t ?name:(Obj.obj b : string option) (Obj.obj a : unit -> unit)
    | Spawn_with ->
      ignore (new_fiber t : int);
      match_with (Obj.obj a : Obj.t -> unit) b t.handler
    | Resume -> continue (Obj.obj a : Obj.t resumer).k b
    | Fail -> discontinue (Obj.obj a : Obj.t resumer).k (Obj.obj b : exn)
  end

(* The next event, or -1 once none may run. Heap entries due at [now]
   go before the lane: each was pushed before the clock reached [now],
   so its seq is below every lane entry's, and the lane empties before
   the clock moves on, so the order is [(time, seq)] exactly. After a
   failure, the events of the *same* instant still run: the root fiber
   may be queued right behind the failing background fiber, and its own
   error (or completion) is the one the caller should see. *)
let next t =
  let h = t.heap in
  if Heap.is_empty h then (if t.nlane > 0 then lane_pop t else -1)
  else
    let time = Heap.min_time h in
    if time = t.now then Heap.pop h
    else if t.nlane > 0 then lane_pop t
    else if Option.is_some t.failure then -1
    else begin
      t.now <- time;
      Heap.pop h
    end

(* Run events until none is left. *)
let rec drain t =
  let s = next t in
  if s >= 0 then begin
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

let suspend_with (g : 'x -> 'a resumer -> unit) (x : 'x) : 'a =
  let t = get () in
  t.park_g <- Obj.repr g;
  t.park_x <- Obj.repr x;
  Effect.perform Suspend

let suspend setup = suspend_with (fun f r -> f r) setup

let schedule d f =
  let t = get () in
  let d = if d < 0 then 0 else d in
  push_call t ~time:(t.now + d) t.ctx f

let schedule_with d g x =
  let t = get () in
  let d = if d < 0 then 0 else d in
  push_call_with t ~time:(t.now + d) t.ctx g x

let schedule_with_n d g x n =
  let t = get () in
  let d = if d < 0 then 0 else d in
  push_call_with_n t ~time:(t.now + d) t.ctx g x n

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
