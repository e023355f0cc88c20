module Sim = Fractos_sim
module Core = Fractos_core
open Core

type t = {
  sproc : Process.t;
  handlers : (string, t -> State.delivery -> unit) Hashtbl.t;
  oneshots : (string, State.delivery Sim.Ivar.t) Hashtbl.t;
  mutable next_call : int;
}

let pump t =
  let rec loop () =
    let d = Api.receive t.sproc in
    (match Hashtbl.find_opt t.oneshots d.State.d_tag with
    | Some iv ->
      Hashtbl.remove t.oneshots d.State.d_tag;
      Sim.Ivar.fill iv d
    | None -> (
      match Hashtbl.find_opt t.handlers d.State.d_tag with
      | Some h -> Sim.Engine.spawn (fun () -> h t d)
      | None ->
        (* "~"-tags are internal one-shot continuations; an unclaimed one
           is a reply that arrived after its caller timed out — drop it *)
        if not (String.length d.State.d_tag > 0 && d.State.d_tag.[0] = '~')
        then
          Logs.warn (fun m ->
              m "%s: unhandled delivery tag %S" (Process.name t.sproc)
                d.State.d_tag)));
    loop ()
  in
  loop ()

let create proc =
  let t =
    {
      sproc = proc;
      handlers = Hashtbl.create 8;
      oneshots = Hashtbl.create 8;
      next_call = 0;
    }
  in
  Sim.Engine.spawn ~name:(Process.name proc ^ ".pump") (fun () -> pump t);
  t

let proc t = t.sproc
let handle t ~tag h = Hashtbl.replace t.handlers tag h

let traced name h t d =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~node:t.sproc.State.pnode.Net.Node.name ~name (fun () ->
        h t d)
  else h t d

let call t ~svc ?(imms = []) ?(caps = []) ?timeout () =
  t.next_call <- t.next_call + 1;
  let tag = Printf.sprintf "~r%d.%d" (State.(t.sproc.pid)) t.next_call in
  match Api.request_create t.sproc ~tag () with
  | Error _ as e -> e
  | Ok cont -> (
    let iv = Sim.Ivar.create () in
    Hashtbl.replace t.oneshots tag iv;
    match Api.request_derive t.sproc svc ~imms ~caps:(caps @ [ cont ]) () with
    | Error e ->
      Hashtbl.remove t.oneshots tag;
      Error e
    | Ok callreq -> (
      match Api.request_invoke t.sproc callreq with
      | Error e ->
        Hashtbl.remove t.oneshots tag;
        Error e
      | Ok () -> (
        match timeout with
        | None -> Ok (Sim.Ivar.await iv)
        | Some timeout -> (
          match Sim.Ivar.await_timeout iv ~timeout with
          | Some d -> Ok d
          | None ->
            (* stop waiting; a late reply delivery is dropped by the pump *)
            Hashtbl.remove t.oneshots tag;
            Error Error.Timeout))))

let fresh_tag t =
  t.next_call <- t.next_call + 1;
  Printf.sprintf "~t%d.%d" State.(t.sproc.pid) t.next_call

let expect t ~tag =
  let iv = Sim.Ivar.create () in
  Hashtbl.replace t.oneshots tag iv;
  iv

let expect_pair t ~ok ~err =
  let iv = Sim.Ivar.create () in
  Hashtbl.replace t.oneshots ok iv;
  Hashtbl.replace t.oneshots err iv;
  iv

let unexpect t ~tag = Hashtbl.remove t.oneshots tag

let call_cont t ~svc ?(imms = []) ~place () =
  t.next_call <- t.next_call + 1;
  let n = t.next_call in
  let ok_tag = Printf.sprintf "~k%d.%d" State.(t.sproc.pid) n in
  let err_tag = Printf.sprintf "~e%d.%d" State.(t.sproc.pid) n in
  match
    ( Api.request_create t.sproc ~tag:ok_tag (),
      Api.request_create t.sproc ~tag:err_tag () )
  with
  | Error e, _ | _, Error e -> Error e
  | Ok ok_cont, Ok err_cont -> (
    let iv = Sim.Ivar.create () in
    Hashtbl.replace t.oneshots ok_tag iv;
    Hashtbl.replace t.oneshots err_tag iv;
    let cleanup () =
      Hashtbl.remove t.oneshots ok_tag;
      Hashtbl.remove t.oneshots err_tag
    in
    match
      Api.request_derive t.sproc svc ~imms
        ~caps:(place ~ok:ok_cont ~err:err_cont)
        ()
    with
    | Error e ->
      cleanup ();
      Error e
    | Ok callreq -> (
      match Api.request_invoke t.sproc callreq with
      | Error e ->
        cleanup ();
        Error e
      | Ok () ->
        let d = Sim.Ivar.await iv in
        cleanup ();
        Ok (String.equal d.State.d_tag ok_tag, d)))

let reply t (d : State.delivery) ~status ?(imms = []) ?(caps = []) () =
  match List.rev d.State.d_caps with
  | [] ->
    Logs.warn (fun m ->
        m "%s: reply to a delivery with no continuation"
          (Process.name t.sproc))
  | cont :: _ -> (
    match
      Api.request_derive t.sproc cont ~imms:(Args.of_int status :: imms) ~caps
        ()
    with
    | Error e ->
      Logs.warn (fun m ->
          m "%s: reply derive failed: %s" (Process.name t.sproc)
            (Error.to_string e))
    | Ok r -> (
      match Api.request_invoke t.sproc r with
      | Ok () -> ()
      | Error e ->
        Logs.warn (fun m ->
            m "%s: reply invoke failed: %s" (Process.name t.sproc)
              (Error.to_string e))))

let status (d : State.delivery) =
  match d.State.d_imms with
  | s :: _ -> Args.to_int s
  | [] -> invalid_arg "Svc.status: empty reply"

let payload_imms (d : State.delivery) =
  match d.State.d_imms with
  | _ :: rest -> rest
  | [] -> invalid_arg "Svc.payload_imms: empty reply"
