(* Waiters, newest first. [W_opt] is an [await_timeout] waiter, which
   wants [Some v]; [K] is an [upon] step, a function and the trace
   context to run it under. Each is a list cell of its own, so no kind of
   waiter costs more than one cons. *)
type 'a waiters =
  | Nil
  | W of 'a Engine.resumer * 'a waiters
  | W_opt of 'a option Engine.resumer * 'a waiters
  | K of int * ('a -> unit) * 'a waiters

type 'a state = Empty of 'a waiters | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty Nil }

(* Wake oldest first: recurse to the tail before waking the head. *)
let rec wake_all v = function
  | Nil -> ()
  | W (r, rest) ->
    wake_all v rest;
    Engine.resume r v
  | W_opt (r, rest) ->
    wake_all v rest;
    Engine.resume r (Some v)
  | K (ctx, g, rest) ->
    wake_all v rest;
    Engine.wake_with ctx g v

let fill iv v =
  match iv.state with
  | Empty waiters ->
    iv.state <- Full v;
    wake_all v waiters
  | Full _ -> invalid_arg "Ivar.fill: already filled"

let try_fill iv v =
  match iv.state with
  | Empty _ ->
    fill iv v;
    true
  | Full _ -> false

let add_waiter iv r =
  match iv.state with
  | Empty waiters -> iv.state <- Empty (W (r, waiters))
  | Full v -> Engine.resume r v

let await iv =
  match iv.state with
  | Full v -> v
  | Empty _ -> Engine.suspend_with add_waiter iv

let await_timeout iv ~timeout =
  match iv.state with
  | Full v -> Some v
  | Empty _ ->
    Engine.suspend (fun r ->
        (* the fill path and the timer race; the resumer's one-shot guard
           makes whichever fires second a no-op *)
        (match iv.state with
        | Empty waiters -> iv.state <- Empty (W_opt (r, waiters))
        | Full v -> Engine.resume r (Some v));
        Engine.schedule timeout (fun () -> Engine.resume r None))

let upon iv g =
  match iv.state with
  | Full v -> g v
  | Empty waiters -> iv.state <- Empty (K (Engine.get_ctx (), g, waiters))
