module Sim = Fractos_sim
module Core = Fractos_core
open Core

type t = {
  sproc : Process.t;
  handlers : (string, State.delivery -> unit) Hashtbl.t;
      (* each applied to its service at registration *)
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
      | Some h -> Sim.Engine.spawn_with h d
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
let handle t ~tag h = Hashtbl.replace t.handlers tag (h t)

let traced name h t d =
  if Obs.Span.enabled () then
    Obs.Span.with_ ~node:t.sproc.State.pnode.Net.Node.name ~name (fun () ->
        h t d)
  else h t d

(* Status codes on the wire: 0 is success and code [c > 0] is
   [errors.(c - 1)]. No other module reads or writes a status integer. *)
let errors =
  Error.
    [|
      Invalid_cap;
      Revoked;
      Stale;
      Perm_denied;
      Bounds;
      Bad_argument "remote failure";
      Provider_dead;
      Ctrl_unreachable;
      Quota_exceeded;
      Timeout;
      Overloaded;
    |]

let code : Error.t -> int = function
  | Invalid_cap -> 1
  | Revoked -> 2
  | Stale -> 3
  | Perm_denied -> 4
  | Bounds -> 5
  | Bad_argument _ -> 6
  | Provider_dead -> 7
  | Ctrl_unreachable -> 8
  | Quota_exceeded -> 9
  | Timeout -> 10
  | Overloaded -> 11

(* A reply is whatever the replier derived: an empty or malformed one
   (from a buggy or hostile service) is a failure, never an exception. *)
let status = function
  | s :: _ when Args.is_int s -> (
    match Args.to_int s with
    | 0 -> Ok ()
    | c when c > 0 && c <= Array.length errors -> Error errors.(c - 1)
    | c -> Error (Error.Bad_argument (Printf.sprintf "unknown status %d" c)))
  | _ -> Error (Error.Bad_argument "malformed status")

(* An error continuation that reports success is malformed too. *)
let failure imms =
  match status imms with
  | Error e -> e
  | Ok () -> Error.Bad_argument "error continuation reported success"

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
        let replied d =
          match status d.State.d_imms with Ok () -> Ok d | Error e -> Error e
        in
        match timeout with
        | None -> replied (Sim.Ivar.await iv)
        | Some timeout -> (
          match Sim.Ivar.await_timeout iv ~timeout with
          | Some d -> replied d
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
        if String.equal d.State.d_tag ok_tag then Ok ()
        else Error (failure d.State.d_imms)))

let warn t what e =
  Logs.warn (fun m ->
      m "%s: %s failed: %s" (Process.name t.sproc) what (Error.to_string e))

(* Derive [cont] with [imms] and [caps] and invoke it. A service has
   nobody to tell when that fails, so the failure is only logged. *)
let send t cont ~imms ~caps =
  match Api.request_derive t.sproc cont ~imms ~caps () with
  | Error e -> warn t "continuation derive" e
  | Ok r -> (
    match Api.request_invoke t.sproc r with
    | Ok () -> ()
    | Error e -> warn t "continuation invoke" e)

let rec last c = function [] -> c | c :: tl -> last c tl

(* The reply continuation is the delivery's last capability. *)
let answer t (d : State.delivery) ~imms ~caps =
  match d.State.d_caps with
  | [] ->
    Logs.warn (fun m ->
        m "%s: reply to a delivery with no continuation"
          (Process.name t.sproc))
  | c :: tl -> send t (last c tl) ~imms ~caps

let reply t d ?(imms = []) ?(caps = []) () =
  answer t d ~imms:(Args.of_int 0 :: imms) ~caps

let fail t d e = answer t d ~imms:[ Args.of_int (code e) ] ~caps:[]

let next t cont =
  match Api.request_invoke t.sproc cont with
  | Ok () -> ()
  | Error e -> warn t "continuation invoke" e

let rec send_all t c = function
  | [] -> ()
  | cont :: tl ->
    send t cont ~imms:[ Args.of_int c ] ~caps:[];
    send_all t c tl

let resolve t conts r =
  match (r, conts) with
  | Ok (), _ -> send_all t 0 conts
  | Error e, [] -> warn t "operation with no error continuation" e
  | Error e, _ -> send_all t (code e) conts

let payload_imms (d : State.delivery) =
  match d.State.d_imms with _ :: rest -> rest | [] -> []

let rec fill a i = function
  | [] -> ()
  | x :: tl ->
    a.(i) <- Args.to_int x;
    fill a (i + 1) tl

let ints imms =
  if List.for_all Args.is_int imms then begin
    let a = Array.make (List.length imms) 0 in
    fill a 0 imms;
    Some a
  end
  else None

type views = {
  v_proc : Process.t;
  v_mem : Api.cid;
  v_full : int;
  v_cache : (int, Api.cid) Hashtbl.t;
}

let views proc mem ~full =
  { v_proc = proc; v_mem = mem; v_full = full; v_cache = Hashtbl.create 4 }

let view v len =
  if len = v.v_full then Ok v.v_mem
  else
    match Hashtbl.find_opt v.v_cache len with
    | Some c -> Ok c
    | None -> (
      match
        Api.memory_diminish v.v_proc v.v_mem ~off:0 ~len ~drop:Perms.none
      with
      | Error _ as e -> e
      | Ok c ->
        Hashtbl.replace v.v_cache len c;
        Ok c)
