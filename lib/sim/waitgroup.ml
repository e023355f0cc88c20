type t = {
  mutable count : int;
  mutable drained : bool;
  mutable waiters : unit Engine.resumer list;
}

let create () = { count = 0; drained = false; waiters = [] }

let add t n =
  if n < 0 then invalid_arg "Waitgroup.add: negative";
  if t.drained && n > 0 then
    invalid_arg "Waitgroup.add: group already drained";
  t.count <- t.count + n

let release t =
  t.drained <- true;
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun w -> Engine.resume w ()) (List.rev ws)

let done_ t =
  if t.count <= 0 then invalid_arg "Waitgroup.done_: below zero";
  t.count <- t.count - 1;
  if t.count = 0 then release t

let wait t =
  if t.count = 0 then ()
  else Engine.suspend (fun r -> t.waiters <- r :: t.waiters)

let spawn t f =
  add t 1;
  Engine.spawn (fun () ->
      Fun.protect ~finally:(fun () -> done_ t) f)
