(* Each message carries its sender's trace context; [recv]/[try_recv]
   adopt it, so request traces follow messages across queues (the
   message-passing half of context propagation — ivars, by contrast,
   restore the awaiting fiber's own context). *)

type 'a t = {
  items : (int * 'a) Queue.t;
  readers : (int * 'a) Engine.resumer Queue.t;
}

let create () = { items = Queue.create (); readers = Queue.create () }

let send ch v =
  let m = (Engine.get_ctx (), v) in
  match Queue.take_opt ch.readers with
  | Some r -> Engine.resume r m
  | None -> Queue.add m ch.items

let recv ch =
  let ctx, v =
    match Queue.take_opt ch.items with
    | Some m -> m
    | None -> Engine.suspend (fun r -> Queue.add r ch.readers)
  in
  Engine.set_ctx ctx;
  v

let try_recv ch =
  match Queue.take_opt ch.items with
  | Some (ctx, v) ->
    Engine.set_ctx ctx;
    Some v
  | None -> None

let length ch = Queue.length ch.items
let waiters ch = Queue.length ch.readers
