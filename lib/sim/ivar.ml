(* Waiters, newest first. [W_opt] is an [await_timeout] waiter, which
   wants [Some v]; it is a list cell of its own, so neither kind of waiter
   costs more than one cons. *)
type 'a waiters =
  | Nil
  | W of 'a Engine.resumer * 'a waiters
  | W_opt of 'a option Engine.resumer * 'a waiters

type 'a state =
  | Empty of 'a waiters
  | Full of 'a
  | Broken of exn

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

let rec abort_all e = function
  | Nil -> ()
  | W (r, rest) ->
    abort_all e rest;
    Engine.abort r e
  | W_opt (r, rest) ->
    abort_all e rest;
    Engine.abort r e

let fill iv v =
  match iv.state with
  | Empty waiters ->
    iv.state <- Full v;
    wake_all v waiters
  | Full _ | Broken _ -> invalid_arg "Ivar.fill: already filled"

let fill_exn iv e =
  match iv.state with
  | Empty waiters ->
    iv.state <- Broken e;
    abort_all e waiters
  | Full _ | Broken _ -> invalid_arg "Ivar.fill_exn: already filled"

let try_fill iv v =
  match iv.state with
  | Empty _ ->
    fill iv v;
    true
  | Full _ | Broken _ -> false

let add_waiter iv r =
  match iv.state with
  | Empty waiters -> iv.state <- Empty (W (r, waiters))
  | Full v -> Engine.resume r v
  | Broken e -> Engine.abort r e

let await iv =
  match iv.state with
  | Full v -> v
  | Broken e -> raise e
  | Empty _ -> Engine.wait (Engine.waiter add_waiter iv)

let await_timeout iv ~timeout =
  match iv.state with
  | Full v -> Some v
  | Broken e -> raise e
  | Empty _ ->
    Engine.suspend (fun r ->
        (* the fill path and the timer race; the resumer's one-shot guard
           makes whichever fires second a no-op *)
        (match iv.state with
        | Empty waiters -> iv.state <- Empty (W_opt (r, waiters))
        | Full v -> Engine.resume r (Some v)
        | Broken e -> Engine.abort r e);
        Engine.schedule timeout (fun () -> Engine.resume r None))

let peek iv =
  match iv.state with
  | Full v -> Some v
  | Empty _ | Broken _ -> None

let is_filled iv =
  match iv.state with
  | Full _ | Broken _ -> true
  | Empty _ -> false
