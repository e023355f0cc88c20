(* Each message carries its sender's trace context; [recv]/[try_recv]
   adopt it, so request traces follow messages across queues (the
   message-passing half of context propagation — ivars, by contrast,
   restore the awaiting fiber's own context).

   Queued messages wait in a ring: their values in [vals] and their
   senders' contexts beside them in [ctxs], the oldest at [head]. Both
   start empty and double when full, and a taken slot is emptied, so a
   delivered message is not kept alive. A message handed straight to a
   waiting fiber or step is not queued: the fiber's [Resume] event, or
   the step's event, runs under the sender's context. So neither a
   queued nor a handed-over message allocates anything once the ring
   has grown. *)

type 'a t = {
  mutable vals : 'a Engine.slots;
  mutable ctxs : int array;
  mutable head : int;
  mutable len : int;
  readers : 'a Engine.resumer Queue.t;
  mutable stepping : bool; (* a [recv_then] step waits *)
  mutable step : 'a -> unit;
}

let add_reader readers r = Queue.add r readers

let create () =
  {
    vals = Engine.slots 0;
    ctxs = [||];
    head = 0;
    len = 0;
    readers = Queue.create ();
    stepping = false;
    step = ignore;
  }

(* The ring is full: move its items, oldest first, to the front of rings
   twice as long (eight slots the first time). *)
let grow ch =
  let cap = Array.length ch.ctxs in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let vals = Engine.slots cap' and ctxs = Array.make cap' 0 in
  for k = 0 to ch.len - 1 do
    let i = (ch.head + k) land (cap - 1) in
    Engine.set_slot vals k (Engine.take_slot ch.vals i);
    ctxs.(k) <- ch.ctxs.(i)
  done;
  ch.vals <- vals;
  ch.ctxs <- ctxs;
  ch.head <- 0

let push ch ctx v =
  if ch.len = Array.length ch.ctxs then grow ch;
  let i = (ch.head + ch.len) land (Array.length ch.ctxs - 1) in
  Engine.set_slot ch.vals i v;
  ch.ctxs.(i) <- ctx;
  ch.len <- ch.len + 1

(* The oldest item, under its sender's context *)
let take ch =
  let i = ch.head in
  Engine.set_ctx ch.ctxs.(i);
  ch.head <- (i + 1) land (Array.length ch.ctxs - 1);
  ch.len <- ch.len - 1;
  Engine.take_slot ch.vals i

(* A waiting step runs from the event a resumed reader would, under the
   sender's context, as the reader does. *)
let send ch v =
  if ch.stepping then begin
    ch.stepping <- false;
    Engine.schedule_with 0 ch.step v
  end
  else if Queue.is_empty ch.readers then push ch (Engine.get_ctx ()) v
  else Engine.resume_in (Engine.get_ctx ()) (Queue.take ch.readers) v

let recv ch =
  if ch.len = 0 then Engine.suspend_with add_reader ch.readers else take ch

let recv_then ch g =
  if ch.len = 0 then begin
    ch.stepping <- true;
    ch.step <- g
  end
  else g (take ch)

let try_recv ch = if ch.len = 0 then None else Some (take ch)
let length ch = ch.len
let waiters ch = Queue.length ch.readers
