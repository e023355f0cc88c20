exception Deadlock of string

type t = {
  heap : (unit -> unit) Heap.t;
  mutable now : int;
  mutable seq : int;
  mutable fibers : int;
  mutable failure : (bool * exn) option; (* (from_root_fiber, exn) *)
  mutable main_done : bool;
  mutable ctx : int; (* fiber-local trace context, 0 = none *)
  names : (int, string) Hashtbl.t; (* live named fibers, keyed by fiber id *)
  mutable next_fiber : int;
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

let schedule_at t ~time f =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  Heap.push t.heap ~time ~seq:t.seq f

type 'a resumer = { resume : 'a -> unit; abort : exn -> unit }

type _ Effect.t +=
  | Sleep : int -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t

(* Each fiber runs under this deep handler. Continuations are one-shot;
   resumers guard against double resumption with a [used] flag. The trace
   context [t.ctx] is fiber-local: it is captured whenever a fiber
   suspends (or a closure is scheduled) and restored right before the
   continuation resumes, so each fiber keeps its own ambient context no
   matter how events interleave. *)
(* First failure wins within an origin class, but a failure coming from the
   root fiber outranks one recorded earlier by a background fiber at the
   same instant: abandoned server fibers (e.g. of a crashed controller)
   must not mask the root fiber's own error. *)
let record_failure t ~root e =
  match t.failure with
  | None -> t.failure <- Some (root, e)
  | Some (false, _) when root -> t.failure <- Some (root, e)
  | Some _ -> ()

let exec t ?(root = false) ?name f =
  let open Effect.Deep in
  t.fibers <- t.fibers + 1;
  let fid = t.next_fiber in
  t.next_fiber <- fid + 1;
  (match name with
  | Some n -> Hashtbl.replace t.names fid n
  | None -> ());
  let finished () = if name <> None then Hashtbl.remove t.names fid in
  match_with f ()
    {
      retc = (fun () -> finished ());
      exnc =
        (fun e ->
          finished ();
          record_failure t ~root e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
            Some
              (fun (k : (a, unit) continuation) ->
                let d = if d < 0 then 0 else d in
                let ctx = t.ctx in
                schedule_at t ~time:(t.now + d) (fun () ->
                    t.ctx <- ctx;
                    continue k ()))
          | Suspend setup ->
            Some
              (fun (k : (a, unit) continuation) ->
                let used = ref false in
                let ctx = t.ctx in
                let resume v =
                  if not !used then begin
                    used := true;
                    schedule_at t ~time:t.now (fun () ->
                        t.ctx <- ctx;
                        continue k v)
                  end
                and abort e =
                  if not !used then begin
                    used := true;
                    schedule_at t ~time:t.now (fun () ->
                        t.ctx <- ctx;
                        discontinue k e)
                  end
                in
                setup { resume; abort })
          | _ -> None);
    }

let create () =
  {
    heap = Heap.create ();
    now = 0;
    seq = 0;
    fibers = 0;
    failure = None;
    main_done = false;
    ctx = 0;
    names = Hashtbl.create 16;
    next_fiber = 0;
  }

(* Run the heap until it is exhausted. After a failure is recorded, keep
   draining events scheduled for the *same* instant before stopping: the
   root fiber may be queued right behind the failing background fiber,
   and its own error (or completion) is the one the caller should see.
   Events at a later time never run once a failure exists. *)
let drain t =
  let rec loop () =
    match Heap.pop t.heap with
    | None -> ()
    | Some (time, _seq, run_event) ->
      if t.failure <> None && time > t.now then ()
      else begin
        t.now <- time;
        (try run_event () with e -> record_failure t ~root:false e);
        loop ()
      end
  in
  loop ()

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
      schedule_at t ~time:0 (fun () ->
          exec t ~root:true ~name (fun () ->
              let v = main () in
              result := Some v;
              t.main_done <- true));
      drain t;
      match t.failure with
      | Some (_, e) -> raise e
      | None -> (
        match !result with
        | Some v -> v
        | None -> raise_deadlock ~name t))

let now () = (get ()).now
let sleep d = Effect.perform (Sleep d)

let sleep_until time =
  let t = now () in
  if time > t then sleep (time - t)

let spawn ?name f =
  let t = get () in
  let ctx = t.ctx in
  schedule_at t ~time:t.now (fun () ->
      t.ctx <- ctx;
      exec t ?name f)

let yield () = sleep 0
let suspend setup = Effect.perform (Suspend setup)

let schedule d f =
  let t = get () in
  let d = if d < 0 then 0 else d in
  let ctx = t.ctx in
  schedule_at t ~time:(t.now + d) (fun () ->
      t.ctx <- ctx;
      f ())

let fiber_count () = (get ()).fibers

let get_ctx () = match current () with Some t -> t.ctx | None -> 0
let set_ctx c = match current () with Some t -> t.ctx <- c | None -> ()
