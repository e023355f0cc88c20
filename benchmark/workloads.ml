(* The four benchmark workloads. Each builds its testbed on
   [Net.Config.default], changing only environment fields (fabric line
   rate, capability-space quota, topology), so the benchmark measures what
   the system ships. Every random choice draws from a [Prng.stream] of the
   run's seed. *)

open Fractos_sim
module Net = Fractos_net
module Core = Fractos_core
module Api = Core.Api
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Svc = Fractos_services.Svc
module Faceverify = Fractos_services.Faceverify
module Pd = Fractos_workloads.Pd
module Facedata = Fractos_workloads.Facedata
module Loadgen = Fractos_workloads.Loadgen
module Span = Fractos_obs.Span

type load =
  | Rate of float  (** open loop: aggregate offered req/s *)
  | Clients of int  (** closed loop: concurrent clients *)

type phase = Testbed | Deploy | Populate

(* Times each set-up phase on the host clock. *)
type clock = { phase : 'a. phase -> (unit -> 'a) -> 'a }

(* Counts and latencies of one measured phase. Times are simulated ns. *)
type tally = {
  t0 : Time.t;
  mutable attempted : int;
  mutable failed : int;
  mutable lat : Time.t list;  (** latency of record of each ok request *)
  mutable full : Time.t list;  (** arrival to completion, when it differs *)
  mutable last_arrival : Time.t;
  mutable last_done : Time.t;
  mutable mismatches : string list;  (** output checks that failed *)
}

type measured = {
  tally : tally;
  payload_bytes : int;  (** bytes the workload asked to move *)
  pd : (int array * int array * float) option;
      (** requests per prefill and per decode instance, prefix affinity *)
  post_check : unit -> string list;  (** output checks after quiescence *)
}

(* How [sustained_rps] is found for an open-loop workload. *)
type search = {
  lo : float;
  hi : float;  (** offered rates bisected between *)
  probe_n : int;  (** requests per probe *)
  limit_us : float;  (** p99 latency limit of a passing probe *)
}

type t = {
  name : string;
  config : Net.Config.t;
  nominal : load;
  peak : load;
  testbed_n : int;
      (** most requests one testbed serves; a point needing more is split
          over replica testbeds, each on its own sub-seed, and their
          samples are pooled *)
  point_n : int;  (** requests per nominal or peak point *)
  search : search option;  (** [None] for closed loop *)
  trace_n : int;  (** requests of the traced point (span-ring budget) *)
  setup :
    clock ->
    seed:int ->
    load ->
    n:int ->
    Tb.t ->
    unit ->
    measured;
      (** Build the testbed for one point; the returned closure runs the
          measured phase. *)
}

let ok_exn = Core.Error.ok_exn

(* Request fibers report how they ended. [Ttft t] is success with a
   latency of record [t] other than arrival-to-completion. *)
type reply = Done | Ttft of Time.t | Failed

let begin_tally () =
  let now = Engine.now () in
  {
    t0 = now;
    attempted = 0;
    failed = 0;
    lat = [];
    full = [];
    last_arrival = now;
    last_done = now;
    mismatches = [];
  }

let mismatch tally msg = tally.mismatches <- msg :: tally.mismatches

(* One request, timed from the instant it is due: open-loop request fibers
   start at their arrival time, closed-loop ones when issued. Each request
   is its own trace root, so a traced run can partition it. *)
let request tally f =
  let start = Engine.now () in
  tally.attempted <- tally.attempted + 1;
  if start > tally.last_arrival then tally.last_arrival <- start;
  (match Span.with_ ~name:"bench.request" f with
  | Done -> tally.lat <- (Engine.now () - start) :: tally.lat
  | Ttft t ->
    tally.lat <- t :: tally.lat;
    tally.full <- (Engine.now () - start) :: tally.full
  | Failed -> tally.failed <- tally.failed + 1);
  if Engine.now () > tally.last_done then tally.last_done <- Engine.now ()

let open_loop tally ~rng ~rate ~n f =
  ignore
    (Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n (fun i ->
         request tally (fun () -> f i)))

(* Stratified draws for input mixes: call [deck rng k] once per stream,
   then with indices 0, 1, 2, ... in order. Each block of [k] consecutive
   indices gets a fresh seeded permutation of 0 .. k-1, so every category
   occurs equally often and only the order is random. This keeps a short
   run's mix, and hence its load, the same across seeds. *)
let deck rng k =
  let perm = Array.init k Fun.id in
  fun i ->
    if i mod k = 0 then
      for j = k - 1 downto 1 do
        let r = Prng.int rng (j + 1) in
        let t = perm.(j) in
        perm.(j) <- perm.(r);
        perm.(r) <- t
      done;
    perm.(i mod k)

let rate_of = function
  | Rate r -> r
  | Clients _ -> invalid_arg "open-loop workload given a client count"

let finish ?(payload_bytes = 0) ?pd ?(post_check = fun () -> []) tally =
  { tally; payload_bytes; pd; post_check }

(* ------------------------------------------------------------------ *)
(* invoke-xshard: control plane only                                   *)
(* ------------------------------------------------------------------ *)

let shards = 4
let cross_every = 8

let setup_invoke clock ~seed load ~n tb =
  let servers, clients =
    clock.phase Testbed (fun () ->
        let hosts =
          Array.init shards (fun i -> Tb.add_host tb (Printf.sprintf "host%d" i))
        in
        let ctrls = Array.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
        let procs name =
          Array.mapi (fun i h -> Tb.add_proc tb ~on:h ~ctrl:ctrls.(i) name) hosts
        in
        let servers = procs "server" in
        let clients = procs "client" in
        Tb.shard_all tb;
        (servers, clients))
  in
  let received = ref 0 in
  let own = Array.make shards 0 and neighbour = Array.make shards 0 in
  clock.phase Deploy (fun () ->
      Array.iter
        (fun s ->
          Engine.spawn (fun () ->
              let rec loop () =
                ignore (Api.receive s);
                incr received;
                loop ()
              in
              loop ()))
        servers;
      let svcs =
        Array.map (fun s -> ok_exn (Api.request_create s ~tag:"svc" ())) servers
      in
      for i = 0 to shards - 1 do
        let j = (i + 1) mod shards in
        own.(i) <- Tb.grant ~src:servers.(i) ~dst:clients.(i) svcs.(i);
        neighbour.(i) <- Tb.grant ~src:servers.(j) ~dst:clients.(i) svcs.(j)
      done);
  (* warm-up fills the directory caches on both paths; its 2 * shards
     deliveries may land after the measured phase has begun *)
  clock.phase Populate (fun () ->
      for i = 0 to shards - 1 do
        ok_exn (Api.request_invoke clients.(i) own.(i));
        ok_exn (Api.request_invoke clients.(i) neighbour.(i))
      done);
  fun () ->
    let tally = begin_tally () in
    let rate = rate_of load /. float_of_int shards in
    let wg = Waitgroup.create () in
    for i = 0 to shards - 1 do
      Waitgroup.spawn wg (fun () ->
          let arrivals = Prng.stream ~seed ~id:i in
          let cross = deck (Prng.stream ~seed ~id:(shards + i)) cross_every in
          open_loop tally ~rng:arrivals ~rate ~n:(n / shards) (fun k ->
              let svc = if cross k = 0 then neighbour.(i) else own.(i) in
              match Api.request_invoke clients.(i) svc with
              | Ok () -> Done
              | Error _ -> Failed))
    done;
    Waitgroup.wait wg;
    finish tally ~post_check:(fun () ->
        let ok = tally.attempted - tally.failed in
        let got = !received - (2 * shards) in
        if got = ok then []
        else
          [ Printf.sprintf "servers received %d invocations, %d succeeded" got ok ])

let invoke_xshard =
  {
    name = "invoke-xshard";
    config = { Net.Config.default with capspace_quota = 1 lsl 20 };
    nominal = Rate 1_600_000.;
    peak = Rate 2_750_000.;
    testbed_n = 200_000;
    point_n = 200_000;
    search =
      Some { lo = 2_000_000.; hi = 5_000_000.; probe_n = 40_000; limit_us = 50. };
    trace_n = 32_000;
    setup = setup_invoke;
  }

(* ------------------------------------------------------------------ *)
(* copy-bulk: data plane only                                          *)
(* ------------------------------------------------------------------ *)

let copy_sizes = [| 64 * 1024; 1 lsl 20; 4 lsl 20 |]
let gbit = 1_000_000_000

(* Even clients push their own buffer into a peer's on the other host;
   odd clients pull a peer's buffer into their own, so both the source and
   the destination side of the copy engine run on each controller. *)
let setup_copy clock ~seed load ~n tb =
  let clients =
    match load with
    | Clients c -> c
    | Rate _ -> invalid_arg "copy-bulk is closed loop"
  in
  let procs =
    clock.phase Testbed (fun () ->
        match Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] with
        | [ sa; sb ] ->
          Array.init clients (fun c ->
              ( Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl
                  (Printf.sprintf "client%d" c),
                Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl
                  (Printf.sprintf "peer%d" c) ))
        | _ -> assert false)
  in
  let pairs =
    clock.phase Deploy (fun () ->
        Array.mapi
          (fun c (cp, pp) ->
            Array.map
              (fun size ->
                let mine = Core.Process.alloc cp size in
                let theirs = Core.Process.alloc pp size in
                let cap proc buf perms = ok_exn (Api.memory_create proc buf perms) in
                let remote perms = Tb.grant ~src:pp ~dst:cp (cap pp theirs perms) in
                if c mod 2 = 0 then
                  (cap cp mine Core.Perms.ro, remote Core.Perms.rw, mine, theirs)
                else (remote Core.Perms.ro, cap cp mine Core.Perms.rw, theirs, mine))
              copy_sizes)
          procs)
  in
  clock.phase Populate (fun () ->
      Array.iteri
        (fun c ps ->
          Array.iter
            (fun (src, dst, _, _) ->
              ok_exn (Api.memory_copy (fst procs.(c)) ~src ~dst))
            ps)
        pairs);
  fun () ->
    let tally = begin_tally () in
    let payload = ref 0 in
    let wg = Waitgroup.create () in
    for c = 0 to clients - 1 do
      Waitgroup.spawn wg (fun () ->
          let rng = Prng.stream ~seed ~id:c in
          let size_of =
            deck (Prng.stream ~seed ~id:(clients + c)) (Array.length copy_sizes)
          in
          for k = 0 to (n / clients) - 1 do
            let src, dst, sbuf, dbuf = pairs.(c).(size_of k) in
            let size = Core.Membuf.size sbuf in
            (* a fresh non-zero source and a zeroed destination, so any
               byte the copy skips shows up in the compare *)
            Core.Membuf.fill sbuf (Char.chr (1 + Prng.int rng 255));
            Core.Membuf.fill dbuf '\000';
            request tally (fun () ->
                match Api.memory_copy (fst procs.(c)) ~src ~dst with
                | Ok () ->
                  payload := !payload + size;
                  if not (Bytes.equal sbuf.Core.Membuf.data dbuf.Core.Membuf.data)
                  then
                    mismatch tally
                      (Printf.sprintf "client %d: %d-byte copy differs" c size);
                  Done
                | Error _ -> Failed)
          done)
    done;
    Waitgroup.wait wg;
    finish tally ~payload_bytes:!payload

let copy_bulk =
  {
    name = "copy-bulk";
    config =
      {
        Net.Config.default with
        net_bandwidth_bps = 100 * gbit;
        capspace_quota = 1 lsl 20;
      };
    nominal = Clients 4;
    peak = Clients 8;
    testbed_n = 2000;
    point_n = 2000;
    search = None;
    trace_n = 600;
    setup = setup_copy;
  }

(* ------------------------------------------------------------------ *)
(* faceverify: the paper's end-to-end application                      *)
(* ------------------------------------------------------------------ *)

let img_size = 4096
let n_images = 16384
let fv_batch = 16
let fv_depth = 8
let impostor_every = 4

(* The database image set is an input, the same for every seed; it is
   generated once per process and only its upload is set-up work. *)
let fv_db = lazy (Facedata.db ~img_size ~n:n_images)

let setup_faceverify clock ~seed load ~n tb =
  let content = Lazy.force fv_db in
  let c =
    clock.phase Testbed (fun () ->
        Cluster.make ~placement:Tb.Ctrl_cpu ~extent_size:(n_images * img_size) tb)
  in
  clock.phase Populate (fun () ->
      ok_exn
        (Faceverify.populate_db c.Cluster.app ~fs:c.Cluster.fs_cap
           ~name:"facedb" ~content));
  let expected = Facedata.expected_matches ~batch:fv_batch ~impostor_every in
  (* Probes are sliced from the cached image set: a genuine probe is its
     database image, an impostor (a 0 in the expected flags) differs from
     it in one byte. Facedata.probe_batch would regenerate every image
     and cost more host time than the simulated request. *)
  let probes start_id =
    let b = Bytes.sub content (start_id * img_size) (fv_batch * img_size) in
    Bytes.iteri
      (fun i flag ->
        if flag = '\000' then
          let o = i * img_size in
          Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0xff)))
      expected;
    b
  in
  let fv =
    clock.phase Deploy (fun () ->
        let t =
          ok_exn
            (Faceverify.setup c.Cluster.app ~fs:c.Cluster.fs_cap
               ~gpu_alloc:c.Cluster.gpu_alloc_cap
               ~gpu_load:c.Cluster.gpu_load_cap ~db_name:"facedb" ~img_size
               ~max_batch:fv_batch ~depth:fv_depth)
        in
        ignore
          (ok_exn
             (Faceverify.verify t ~start_id:0 ~batch:fv_batch ~probes:(probes 0)));
        t)
  in
  fun () ->
    let tally = begin_tally () in
    let pick = Prng.stream ~seed ~id:1 in
    open_loop tally ~rng:(Prng.stream ~seed ~id:0) ~rate:(rate_of load) ~n
      (fun _ ->
        let start_id = Prng.int pick (n_images - fv_batch) in
        match
          Faceverify.verify fv ~start_id ~batch:fv_batch ~probes:(probes start_id)
        with
        | Ok flags ->
          if not (Bytes.equal flags expected) then
            mismatch tally (Printf.sprintf "ids %d+%d: wrong match flags" start_id fv_batch);
          Done
        | Error _ -> Failed);
    finish tally ~payload_bytes:(tally.attempted * 2 * fv_batch * img_size)

let faceverify =
  {
    name = "faceverify";
    config = { Net.Config.default with capspace_quota = 1 lsl 20 };
    nominal = Rate 1050.;
    peak = Rate 1450.;
    testbed_n = 3000;
    point_n = 12_000;
    search =
      Some { lo = 1000.; hi = 3200.; probe_n = 4000; limit_us = 10_000. };
    trace_n = 1500;
    setup = setup_faceverify;
  }

(* ------------------------------------------------------------------ *)
(* pd-split: prefill/decode inference with KV copies                    *)
(* ------------------------------------------------------------------ *)

let pd_prefixes = 8
let pd_iters = 16

let setup_pd clock ~seed load ~n tb =
  let setups =
    clock.phase Testbed (fun () ->
        Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "client"; "p0"; "p1"; "d0"; "d1" ])
  in
  let p, client =
    clock.phase Deploy (fun () ->
        match setups with
        | [ sc; p0; p1; d0; d1 ] ->
          let p = Pd.deploy tb ~prefill:[ p0; p1 ] ~decode:[ d0; d1 ] () in
          let proc =
            Tb.add_proc tb ~on:sc.Tb.node ~ctrl:sc.Tb.ctrl "pd-client"
          in
          (p, Pd.attach p (Svc.create proc))
        | _ -> assert false)
  in
  let call ~prefix ~kv_len =
    Pd.request client ~prefix ~prompt_len:(max 64 (kv_len / 256)) ~kv_len
      ~iters:pd_iters ~timeout:(Time.ms 50) ()
  in
  clock.phase Populate (fun () ->
      for prefix = 0 to pd_prefixes - 1 do
        ignore (ok_exn (call ~prefix ~kv_len:(64 * 1024)))
      done);
  fun () ->
    let tally = begin_tally () in
    let prefill = Array.make (Pd.prefill_instances p) 0 in
    let decode = Array.make (Pd.decode_instances p) 0 in
    let last = Array.make pd_prefixes (-1) in
    let repeats = ref 0 and affine = ref 0 in
    let payload = ref 0 in
    let big = deck (Prng.stream ~seed ~id:1) 4 in
    let prefix_of = deck (Prng.stream ~seed ~id:2) pd_prefixes in
    open_loop tally ~rng:(Prng.stream ~seed ~id:0) ~rate:(rate_of load) ~n
      (fun i ->
        let kv_len = if big i = 0 then 512 * 1024 else 64 * 1024 in
        let prefix = prefix_of i in
        match call ~prefix ~kv_len with
        | Ok o ->
          if o.Pd.o_ttft > o.Pd.o_latency then
            mismatch tally "first token after the last one";
          prefill.(o.Pd.o_prefill) <- prefill.(o.Pd.o_prefill) + 1;
          decode.(o.Pd.o_decode) <- decode.(o.Pd.o_decode) + 1;
          if last.(prefix) >= 0 then begin
            incr repeats;
            if last.(prefix) = o.Pd.o_prefill then incr affine
          end;
          last.(prefix) <- o.Pd.o_prefill;
          payload := !payload + kv_len;
          Ttft o.Pd.o_ttft
        | Error _ -> Failed);
    let affinity =
      if !repeats = 0 then 0. else float_of_int !affine /. float_of_int !repeats
    in
    finish tally ~payload_bytes:!payload ~pd:(prefill, decode, affinity)

let pd_split =
  {
    name = "pd-split";
    config = { Net.Config.default with capspace_quota = 1 lsl 20 };
    nominal = Rate 2600.;
    peak = Rate 4100.;
    testbed_n = 1500;
    point_n = 9000;
    search =
      Some { lo = 3000.; hi = 9000.; probe_n = 4000; limit_us = 15_000. };
    trace_n = 1500;
    setup = setup_pd;
  }

let all = [ invoke_xshard; copy_bulk; faceverify; pd_split ]
let find name = List.find_opt (fun w -> w.name = name) all
