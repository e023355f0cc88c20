module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Services = Fractos_services
module Svc = Services.Svc
open Core

type mode = Star | Fast_star | Chain

let mode_name = function
  | Star -> "star"
  | Fast_star -> "fast-star"
  | Chain -> "chain"

let stage_mask i = Char.chr (0x11 + i)

type stage = {
  st_index : int;
  st_run : Api.cid; (* app-held run Request *)
  st_mem : Api.cid; (* app-held capability to the stage buffer *)
}

type t = {
  app : Svc.t;
  stages : stage array;
  max_size : int;
  app_buf : Membuf.t;
  app_mem : Api.cid;
  app_views : (int, Api.cid) Hashtbl.t;
  stage_view_caches : (int, Api.cid) Hashtbl.t array;
      (** app-held per-size views of each stage buffer *)
}

(* Stage handler: transform the local buffer, then either hand control
   back (1 cap: [next]) or push the data onward first (2 caps:
   [dst; next]). *)
let start_stage proc ~index ~max_size =
  let svc = Svc.create proc in
  let buf = Process.alloc proc max_size in
  let mem = Error.ok_exn (Api.memory_create proc buf Perms.rw) in
  let run = Error.ok_exn (Api.request_create proc ~tag:"stage.run" ()) in
  let views : (int, Api.cid) Hashtbl.t = Hashtbl.create 4 in
  let view len =
    if len = max_size then Ok mem
    else
      match Hashtbl.find_opt views len with
      | Some v -> Ok v
      | None -> (
        match Api.memory_diminish proc mem ~off:0 ~len ~drop:Perms.none with
        | Error _ as e -> e
        | Ok v ->
          Hashtbl.replace views len v;
          Ok v)
  in
  Svc.handle svc ~tag:"stage.run" (fun svc d ->
      match d.State.d_imms with
      | [ len ] -> (
        let len = Args.to_int len in
        let cfg =
          match Process.controller proc with
          | Some c -> Fractos_core.Controller.config c
          | None -> Net.Config.default
        in
        (* the stage's compute step: transform its buffer in place *)
        Sim.Engine.sleep
          (Net.Config.scale_time cfg.Net.Config.scale_client
             Net.Config.service_work);
        let mask = stage_mask index in
        Membuf.write buf ~off:0
          (Bytes.map
             (fun c -> Char.chr (Char.code c lxor Char.code mask))
             (Membuf.read buf ~off:0 ~len));
        match d.State.d_caps with
        | [ next ] -> ignore (Api.request_invoke (Svc.proc svc) next)
        | [ dst; next ] -> (
          match view len with
          | Error _ -> ()
          | Ok src -> (
            match Api.memory_copy (Svc.proc svc) ~src ~dst with
            | Ok () -> ignore (Api.request_invoke (Svc.proc svc) next)
            | Error _ -> ()))
        | _ -> Logs.warn (fun m -> m "stage.run: malformed capabilities"))
      | _ -> Logs.warn (fun m -> m "stage.run: malformed immediates"));
  (run, mem)

let deploy ~app ~stages ~max_size ~grant =
  let app_proc = Svc.proc app in
  let stage_arr =
    List.mapi
      (fun i proc ->
        let run, mem = start_stage proc ~index:i ~max_size in
        {
          st_index = i;
          st_run = grant ~src:proc ~dst:app_proc run;
          st_mem = grant ~src:proc ~dst:app_proc mem;
        })
      stages
    |> Array.of_list
  in
  let app_buf = Process.alloc app_proc max_size in
  let app_mem = Error.ok_exn (Api.memory_create app_proc app_buf Perms.rw) in
  {
    app;
    stages = stage_arr;
    max_size;
    app_buf;
    app_mem;
    app_views = Hashtbl.create 4;
    stage_view_caches =
      Array.init (Array.length stage_arr) (fun _ -> Hashtbl.create 4);
  }

let cached_view proc cache mem ~len ~full =
  if len = full then Ok mem
  else
    match Hashtbl.find_opt cache len with
    | Some v -> Ok v
    | None -> (
      match Api.memory_diminish proc mem ~off:0 ~len ~drop:Perms.none with
      | Error _ as e -> e
      | Ok v ->
        Hashtbl.replace cache len v;
        Ok v)

let app_view t len =
  cached_view (Svc.proc t.app) t.app_views t.app_mem ~len ~full:t.max_size

let stage_view t i len =
  cached_view (Svc.proc t.app) t.stage_view_caches.(i) t.stages.(i).st_mem ~len
    ~full:t.max_size

(* Invoke one stage synchronously from the app. [dst] = None for star mode
   (the app will pull the data itself). *)
let invoke_stage t i ~size ~dst =
  let proc = Svc.proc t.app in
  let tag = Svc.fresh_tag t.app in
  match Api.request_create proc ~tag () with
  | Error _ as e -> e
  | Ok cont -> (
    let iv = Svc.expect t.app ~tag in
    let caps = match dst with None -> [ cont ] | Some d -> [ d; cont ] in
    match
      Api.request_derive proc t.stages.(i).st_run
        ~imms:[ Args.of_int size ]
        ~caps ()
    with
    | Error e ->
      Svc.unexpect t.app ~tag;
      Error e
    | Ok r -> (
      match Api.request_invoke proc r with
      | Error e ->
        Svc.unexpect t.app ~tag;
        Error e
      | Ok () ->
        let _ = Sim.Ivar.await iv in
        Ok ()))

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

let run_star t ~size =
  let proc = Svc.proc t.app in
  let n = Array.length t.stages in
  let rec go i =
    if i = n then Ok ()
    else
      let* av = app_view t size in
      let* sv = stage_view t i size in
      let* () = Api.memory_copy proc ~src:av ~dst:sv in
      let* () = invoke_stage t i ~size ~dst:None in
      let* () = Api.memory_copy proc ~src:sv ~dst:av in
      go (i + 1)
  in
  go 0

let run_fast_star t ~size =
  let proc = Svc.proc t.app in
  let n = Array.length t.stages in
  let* av = app_view t size in
  let* s0 = stage_view t 0 size in
  let* () = Api.memory_copy proc ~src:av ~dst:s0 in
  let rec go i =
    if i = n then Ok ()
    else
      let* dst = if i = n - 1 then app_view t size else stage_view t (i + 1) size in
      let* () = invoke_stage t i ~size ~dst:(Some dst) in
      go (i + 1)
  in
  go 0

let run_chain t ~size =
  let proc = Svc.proc t.app in
  let n = Array.length t.stages in
  let* av = app_view t size in
  let* s0 = stage_view t 0 size in
  let* () = Api.memory_copy proc ~src:av ~dst:s0 in
  let tag = Svc.fresh_tag t.app in
  let* done_cont = Api.request_create proc ~tag () in
  let iv = Svc.expect t.app ~tag in
  (* build the Request graph back to front *)
  let rec build i next =
    if i < 0 then Ok next
    else
      let* dst =
        if i = n - 1 then app_view t size else stage_view t (i + 1) size
      in
      let* r =
        Api.request_derive proc t.stages.(i).st_run
          ~imms:[ Args.of_int size ]
          ~caps:[ dst; next ] ()
      in
      build (i - 1) r
  in
  match build (n - 1) done_cont with
  | Error e ->
    Svc.unexpect t.app ~tag;
    Error e
  | Ok head -> (
    match Api.request_invoke proc head with
    | Error e ->
      Svc.unexpect t.app ~tag;
      Error e
    | Ok () ->
      let _ = Sim.Ivar.await iv in
      Ok ())

let run t mode ~size =
  if size > t.max_size then Error (Error.Bad_argument "size too large")
  else
    match mode with
    | Star -> run_star t ~size
    | Fast_star -> run_fast_star t ~size
    | Chain -> run_chain t ~size

let expected_output t ~input =
  let n = Array.length t.stages in
  Bytes.mapi
    (fun _ c ->
      let v = ref (Char.code c) in
      for i = 0 to n - 1 do
        v := !v lxor Char.code (stage_mask i)
      done;
      Char.chr !v)
    input

let last_output t ~size = Membuf.read t.app_buf ~off:0 ~len:size
let set_input t data = Membuf.write t.app_buf ~off:0 data
