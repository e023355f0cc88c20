open Fractos_sim
module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module S = Fractos_services

type dims = {
  img_size : int;
  n_images : int;
  batch : int;
  depth : int;
  clients : int;
  timeout : Time.t;
}

type within = {
  within : 'a. (unit -> ('a, Core.Error.t) result) -> ('a, Core.Error.t) result;
}

type reply = { line : string; bad : string option }

type client = {
  request : Prng.t -> unit -> (reply, Core.Error.t) result;
  refresh : within -> unit;
}

type instance = {
  cluster : Cluster.t;
  detail : string;
  client : int -> client;
  summary : unit -> string;
}

(* What an entry deploys onto: the cluster with the face pipeline up. *)
type env = {
  tb : Tb.t;
  cl : Cluster.t;
  dims : dims;
  fv : S.Faceverify.t ref;
  setup_fv : unit -> (S.Faceverify.t, Core.Error.t) result;
}

(* [serves k]: client [k] runs this deploy's requests (a mix splits the
   clients between two deploys). *)
type deploy = env -> serves:(int -> bool) -> instance

type t = { name : string; title : string; sharded : bool; deploy : deploy }

let name e = e.name
let title e = e.title
let ok_exn = Core.Error.ok_exn
let impostor_every = 5

(* A file spans several FS blocks and a copy several bounce-buffer chunks
   (8 at the default 16 KiB), so faults land mid-operation. *)
let file_size = 4 * 4096
let op_len = 4096
let copy_len = 128 * 1024

let config e c =
  if e.sharded then { c with Net.Config.shard_placement = true } else c

let census env () =
  Format.asprintf "%a" Net.Stats.pp_census
    (Net.Stats.census (Cluster.stats env.cl))

(* Run one attempt; on success, its reply from the result and the
   attempt's simulated latency. *)
let timed f reply =
  let t0 = Engine.now () in
  Result.map
    (fun x -> reply x (Time.to_string (Engine.now () - t0)))
    (f ())

let check ok why = if ok then None else Some why

(* Upload [db] onto a cluster whose extents hold it whole, and return the
   pipeline's (re)start. *)
let face_cluster tb ~placement ~sharded ~db ~img_size ~max_batch ~depth =
  let cl = Cluster.make ~placement ~extent_size:(Bytes.length db) tb in
  if sharded then Tb.shard_all tb;
  let app = cl.Cluster.app and fs = cl.Cluster.fs_cap in
  ok_exn (S.Faceverify.populate_db app ~fs ~name:"facedb" ~content:db);
  let setup () =
    S.Faceverify.setup app ~fs ~gpu_alloc:cl.Cluster.gpu_alloc_cap
      ~gpu_load:cl.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size ~max_batch
      ~depth
  in
  (cl, setup)

let faceverify tb ~placement ~db ~img_size ~max_batch ~depth =
  let cl, setup =
    face_cluster tb ~placement ~sharded:false ~db ~img_size ~max_batch ~depth
  in
  (cl, ok_exn (setup ()))

(* Verify a batch from a random start against the shared pipeline; the
   check compares the match flags with ground truth. A refresh rebuilds
   the pipeline for every client, one rebuild at a time. *)
let verify : deploy =
 fun env ~serves:_ ->
  let d = env.dims in
  let truth = Facedata.expected_matches ~batch:d.batch ~impostor_every in
  let refreshing = ref false in
  let refresh w =
    if not !refreshing then begin
      refreshing := true;
      (match w.within env.setup_fv with Ok fv -> env.fv := fv | Error _ -> ());
      refreshing := false
    end
  in
  let request rng =
    let start_id = Prng.int rng (d.n_images - d.batch + 1) in
    let probes =
      Facedata.probe_batch ~img_size:d.img_size ~start_id ~batch:d.batch
        ~impostor_every
    in
    fun () ->
      timed
        (fun () ->
          S.Faceverify.verify !(env.fv) ~start_id ~batch:d.batch ~probes)
        (fun flags latency ->
          let genuine =
            Bytes.fold_left
              (fun n c -> if c = '\001' then n + 1 else n)
              0 flags
          in
          {
            line =
              Printf.sprintf "ids %5d..%5d  %2d/%2d genuine  %s" start_id
                (start_id + d.batch - 1)
                genuine d.batch latency;
            bad =
              check (Bytes.equal flags truth)
                "verify succeeded with corrupt match flags";
          })
  in
  {
    cluster = env.cl;
    detail = Printf.sprintf ", batch %d" d.batch;
    client = (fun _ -> { request; refresh });
    summary = census env;
  }

(* Each client writes then reads back one block of its own file at a
   random offset. A refresh reopens the file, or recreates it if it died
   with its controller. *)
let files : deploy =
 fun env ~serves ->
  let app = env.cl.Cluster.app and fs = env.cl.Cluster.fs_cap in
  let proc = S.Svc.proc app in
  let client k =
    let name = Printf.sprintf "file-%d" k in
    ok_exn (S.Fs.create app ~fs ~name ~size:file_size);
    let handle = ref (ok_exn (S.Fs.open_ app ~fs ~name S.Fs.Fs_rw)) in
    let buf = Core.Membuf.create ~node:env.cl.Cluster.app_node op_len in
    let ro = ok_exn (Core.Api.memory_create proc buf Core.Perms.ro) in
    let rw = ok_exn (Core.Api.memory_create proc buf Core.Perms.rw) in
    let reopen () =
      match S.Fs.open_ app ~fs ~name S.Fs.Fs_rw with
      | Error Core.Error.Invalid_cap -> (
          match S.Fs.create app ~fs ~name ~size:file_size with
          | Ok () -> S.Fs.open_ app ~fs ~name S.Fs.Fs_rw
          | Error _ as e -> e)
      | r -> r
    in
    let refresh w =
      match w.within reopen with Ok h -> handle := h | Error _ -> ()
    in
    let request rng =
      let off = Prng.int rng (file_size / op_len) * op_len in
      fun () ->
        timed
          (fun () ->
            match S.Fs.write app !handle ~off ~len:op_len ~src:ro with
            | Error _ as e -> e
            | Ok () -> S.Fs.read app !handle ~off ~len:op_len ~dst:rw)
          (fun () latency ->
            {
              line = Printf.sprintf "write+read at %5d  %s" off latency;
              bad = None;
            })
    in
    { request; refresh }
  in
  let clients =
    Array.init env.dims.clients (fun k ->
        if serves k then Some (client k) else None)
  in
  {
    cluster = env.cl;
    detail = Printf.sprintf ", %d B blocks" op_len;
    client = (fun k -> Option.get clients.(k));
    summary = census env;
  }

(* Third-party copies of a per-client pattern from [src] to [dst], each a
   node and either the app's own process ([None]) or a new process of that
   name; the check compares the delivered bytes. Every client gets a
   session, also one a mix hands to another deploy: the chaos goldens
   count their objects. *)
let copies ~label ~salt ~src ~dst : deploy =
 fun env ~serves:_ ->
  let proc = S.Svc.proc env.cl.Cluster.app in
  let side (node_of, owner) =
    let node = node_of env.cl in
    match owner with
    | None -> (node, proc)
    | Some p ->
        (node, Tb.add_proc env.tb ~on:node ~ctrl:(Tb.ctrl_on env.tb node) p)
  in
  let src_node, src_owner = side src in
  let dst_node, dst_owner = side dst in
  let client k =
    let pattern =
      Bytes.init copy_len (fun i -> Char.chr ((k * salt + i) land 0xff))
    in
    let src_buf = Core.Membuf.of_bytes ~node:src_node pattern in
    let dst_buf = Core.Membuf.create ~node:dst_node copy_len in
    let src_ro =
      ok_exn (Core.Api.memory_create src_owner src_buf Core.Perms.ro)
    in
    let dst_rw =
      ok_exn (Core.Api.memory_create dst_owner dst_buf Core.Perms.rw)
    in
    let src =
      if src_owner == proc then src_ro
      else Tb.grant ~src:src_owner ~dst:proc src_ro
    in
    let dst = Tb.grant ~src:dst_owner ~dst:proc dst_rw in
    let request _rng () =
      timed
        (fun () -> Core.Api.memory_copy proc ~src ~dst)
        (fun () latency ->
          let got = Core.Membuf.read dst_buf ~off:0 ~len:copy_len in
          {
            line = Printf.sprintf "%s  %s" label latency;
            bad =
              check (Bytes.equal got pattern)
                (label ^ " completed with corrupt bytes");
          })
    in
    { request; refresh = ignore }
  in
  let clients = Array.init env.dims.clients client in
  {
    cluster = env.cl;
    detail = Printf.sprintf ", %d KiB each" (copy_len / 1024);
    client = Array.get clients;
    summary = census env;
  }

(* A prefill/decode pool over the cluster's controllers: prefill on the
   GPU and storage controllers, decode on the FS and GPU controllers (the
   GPU node hosts both roles, so the locality scorer has a zero-copy
   decode choice). Each request draws a prompt prefix, length and decode
   length; the check wants the first token before completion. *)
let inference : deploy =
 fun env ~serves:_ ->
  let cl = env.cl in
  let setup node = { Tb.node; ctrl = Tb.ctrl_on env.tb node } in
  let pool =
    Pd.deploy env.tb
      ~prefill:[ setup cl.Cluster.gpu_node; setup cl.Cluster.storage_node ]
      ~decode:[ setup cl.Cluster.fs_node; setup cl.Cluster.gpu_node ]
      ()
  in
  let pd = Pd.attach pool cl.Cluster.app in
  let ok = ref 0 and drawn = ref 0 and ttft = ref 0 and total = ref 0 in
  let request rng =
    let prefix = Prng.int rng 4 in
    let prompt_len = 64 * (1 + Prng.int rng 4) in
    let kv_len = 256 * prompt_len in
    let iters = 2 + Prng.int rng 6 in
    incr drawn;
    fun () ->
      timed
        (fun () ->
          Pd.request pd ~prefix ~prompt_len ~kv_len ~iters
            ~timeout:env.dims.timeout ())
        (fun o _ ->
          incr ok;
          ttft := !ttft + o.Pd.o_ttft;
          total := !total + o.Pd.o_latency;
          {
            line =
              Printf.sprintf
                "prompt %4d  kv %8d B  iters %d  p%d->d%d  ttft %-10s total %s"
                prompt_len kv_len iters o.Pd.o_prefill o.Pd.o_decode
                (Time.to_string o.Pd.o_ttft)
                (Time.to_string o.Pd.o_latency);
            bad =
              check
                (o.Pd.o_ttft <= o.Pd.o_latency)
                "first token after completion";
          })
  in
  let mean sum = if !ok = 0 then 0 else sum / !ok in
  {
    cluster = cl;
    detail =
      Printf.sprintf ", %d prefill + %d decode instances, policy least"
        (Pd.prefill_instances pool) (Pd.decode_instances pool);
    client = (fun _ -> { request; refresh = ignore });
    summary =
      (fun () ->
        Printf.sprintf "mean ttft %s  mean total %s  (%d/%d ok)"
          (Time.to_string (mean !ttft))
          (Time.to_string (mean !total))
          !ok !drawn);
  }

(* Odd clients run [odd], even clients [even]; [odd] deploys first. The
   header detail and the summary are [even]'s. *)
let mix ~odd ~even : deploy =
 fun env ~serves ->
  let is_odd k = k land 1 = 1 in
  let o = odd env ~serves:(fun k -> serves k && is_odd k) in
  let e = even env ~serves:(fun k -> serves k && not (is_odd k)) in
  { e with client = (fun k -> if is_odd k then o.client k else e.client k) }

let entry ?(sharded = false) name title deploy =
  { name; title; sharded; deploy }

let all =
  [
    entry "mixed" "face-verification beside file-system traffic"
      (mix ~odd:files ~even:verify);
    entry "faceverify" "face-verification" verify;
    entry "fs" "file-system write+read" files;
    (* every copy is a transfer between the app and storage controllers *)
    entry "copy" "third-party memory_copy"
      (copies ~label:"copy" ~salt:37
         ~src:((fun cl -> cl.Cluster.app_node), None)
         ~dst:((fun cl -> cl.Cluster.storage_node), Some "copy-peer"));
    (* the copy's caller (app), source owner (storage) and destination
       owner (GPU) sit behind three different shards of one capability
       space *)
    entry ~sharded:true "xshard" "face-verification beside cross-shard copies"
      (mix ~even:verify
         ~odd:
           (copies ~label:"cross-shard copy" ~salt:53
              ~src:((fun cl -> cl.Cluster.storage_node), Some "xsrc")
              ~dst:((fun cl -> cl.Cluster.gpu_node), Some "xdst")));
    entry "pd" "prefill/decode disaggregation" inference;
  ]

let find n =
  match List.find_opt (fun e -> e.name = n) all with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (one of: %s)" n
           (String.concat ", " (List.map name all)))

let deploy e dims ~placement tb =
  let db = Facedata.db ~img_size:dims.img_size ~n:dims.n_images in
  let cl, setup_fv =
    face_cluster tb ~placement ~sharded:e.sharded ~db ~img_size:dims.img_size
      ~max_batch:dims.batch ~depth:dims.depth
  in
  let env = { tb; cl; dims; fv = ref (ok_exn (setup_fv ())); setup_fv } in
  e.deploy env ~serves:(fun _ -> true)
