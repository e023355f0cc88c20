(* Property tests for the sharded capability space (ISSUE 8).

   The shard map (Core.Shard) is pure integer arithmetic, so its two
   correctness properties are checked directly by qcheck:

   - totality: with at least one live slot, every key places on exactly
     one live slot — the ownership partition is total and unambiguous;
   - lookup-after-rebalance coherence: after any liveness change
     ("rebalance"), every lookup lands on the first live slot of the
     key's probe ring, so two controllers that agree on the liveness
     bitmap agree on every owner, and a key keeps its owner unless a
     slot between its primary and its owner changed state.

   The directory cache sits on top of the map inside Controller and is
   only observable through a simulation, so its bit-determinism under a
   seeded crash schedule is checked as a property over seeds: the same
   seed must reproduce the same generation/hit/miss/invalidation trace,
   and every run must end directory-coherent (Invariants pass 6). *)

open Fractos_sim
open Fractos_core
module Net = Fractos_net
module Tb = Fractos_testbed.Testbed
module Obs = Fractos_obs

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A shard group: size plus a liveness bitmap with at least one live
   slot (an all-dead group routes nothing, checked separately). *)
let gen_group =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    array_size (return n) bool >>= fun live ->
    int_range 0 (n - 1) >>= fun forced ->
    let live = Array.copy live in
    live.(forced) <- true;
    return (n, live))

let gen_keys = QCheck.Gen.(list_size (int_range 1 64) (int_bound 10_000))
let gen_seed = QCheck.Gen.int_bound 1000

let pp_group (n, live) =
  Printf.sprintf "n=%d live=[%s]" n
    (String.concat ""
       (Array.to_list (Array.map (fun b -> if b then "1" else "0") live)))

(* Reference successor: first live slot at or after [slot], by naive
   scan — the spec the ring probe must match. *)
let ref_route (n, live) slot =
  let rec go i =
    if i >= n then None
    else
      let s = (slot + i) mod n in
      if live.(s) then Some s else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Totality of the ownership partition                                 *)
(* ------------------------------------------------------------------ *)

let prop_partition_total =
  QCheck.Test.make ~name:"ownership partition is total and unambiguous"
    ~count:300
    (QCheck.make
       ~print:(fun ((g, seed), keys) ->
         Printf.sprintf "%s seed=%d keys=%d" (pp_group g) seed
           (List.length keys))
       QCheck.Gen.(pair (pair gen_group gen_seed) gen_keys))
    (fun (((n, live), seed), keys) ->
      let place k = Shard.place ~n ~live:(fun i -> live.(i)) ~seed k in
      List.for_all
        (fun k ->
          match place k with
          | None ->
            QCheck.Test.fail_reportf "key %d placed nowhere (%s)" k
              (pp_group (n, live))
          | Some s ->
            (* exactly one owner: on a live slot, and the same slot on
               every evaluation (two controllers agreeing on the bitmap
               agree on the owner) *)
            if not (0 <= s && s < n && live.(s)) then
              QCheck.Test.fail_reportf "key %d placed on dead slot %d (%s)" k
                s
                (pp_group (n, live))
            else place k = Some s)
        keys)

let prop_place_respects_live_primary =
  QCheck.Test.make ~name:"live primary owns its own keys" ~count:300
    (QCheck.make
       ~print:(fun ((g, seed), keys) ->
         Printf.sprintf "%s seed=%d keys=%d" (pp_group g) seed
           (List.length keys))
       QCheck.Gen.(pair (pair gen_group gen_seed) gen_keys))
    (fun (((n, live), seed), keys) ->
      List.for_all
        (fun k ->
          let primary = Shard.hash ~seed k mod n in
          (not live.(primary))
          || Shard.place ~n ~live:(fun i -> live.(i)) ~seed k = Some primary)
        keys)

let test_all_dead_routes_nothing () =
  for n = 1 to 8 do
    let live _ = false in
    Alcotest.(check bool)
      (Printf.sprintf "place on %d dead slots" n)
      true
      (Shard.place ~n ~live ~seed:7 42 = None);
    Alcotest.(check bool)
      (Printf.sprintf "route on %d dead slots" n)
      true
      (Shard.route ~n ~live 0 = None)
  done;
  Alcotest.(check bool) "empty group" true (Shard.place ~n:0 ~live:(fun _ -> true) ~seed:0 1 = None)

(* ------------------------------------------------------------------ *)
(* Lookup-after-rebalance coherence                                    *)
(* ------------------------------------------------------------------ *)

let prop_rebalance_coherent =
  QCheck.Test.make
    ~name:"lookup after rebalance lands on first live successor" ~count:300
    (QCheck.make
       ~print:(fun (((n, before), after), (seed, keys)) ->
         Printf.sprintf "%s -> after=[%s] seed=%d keys=%d"
           (pp_group (n, before))
           (String.concat ""
              (Array.to_list
                 (Array.map (fun b -> if b then "1" else "0") after)))
           seed (List.length keys))
       QCheck.Gen.(
         pair
           (gen_group >>= fun (n, before) ->
            (* the rebalance: toggle an arbitrary subset of slots *)
            array_size (return n) bool >>= fun flips ->
            let after = Array.mapi (fun i b -> b <> flips.(i)) before in
            return ((n, before), after))
           (pair gen_seed gen_keys)))
    (fun (((n, before), after), (seed, keys)) ->
      let live_after i = after.(i) in
      List.for_all
        (fun k ->
          let primary = Shard.hash ~seed k mod n in
          (* 1. after the rebalance, the owner is exactly the first live
             successor of the key's primary (or nobody when all died) *)
          let owner = Shard.place ~n ~live:live_after ~seed k in
          if owner <> ref_route (n, after) primary then
            QCheck.Test.fail_reportf
              "key %d: owner disagrees with probe-ring spec" k
          else
            (* 2. stability: if no slot on the probe prefix up to (and
               including) the old owner changed state, the owner did not
               move — a rebalance elsewhere cannot steal the key *)
            match Shard.place ~n ~live:(fun i -> before.(i)) ~seed k with
            | None -> true
            | Some old_owner ->
              let dist = (old_owner - primary + n) mod n in
              let prefix_unchanged =
                let rec go i =
                  i > dist
                  || let s = (primary + i) mod n in
                     before.(s) = after.(s) && go (i + 1)
                in
                go 0
              in
              (not prefix_unchanged) || owner = Some old_owner)
        keys)

let prop_route_identity_while_live =
  QCheck.Test.make ~name:"routing a live slot is the identity" ~count:300
    (QCheck.make
       ~print:(fun (g, slot) -> Printf.sprintf "%s slot=%d" (pp_group g) slot)
       QCheck.Gen.(
         gen_group >>= fun (n, live) ->
         int_range 0 (n - 1) >>= fun slot -> return ((n, live), slot)))
    (fun ((n, live), slot) ->
      let r = Shard.route ~n ~live:(fun i -> live.(i)) slot in
      if live.(slot) then r = Some slot
      else r = ref_route (n, live) slot)

(* ------------------------------------------------------------------ *)
(* Directory-cache bit-determinism under a seeded crash schedule       *)
(* ------------------------------------------------------------------ *)

let shard_config =
  { Net.Config.default with Net.Config.shard_placement = true }

(* Run a three-shard cluster under a [seed]-derived schedule of
   cross-shard invokes interleaved with crash/reboot of the two
   non-client shards, and trace every directory-visible transition:
   shard generation, cache size, and the hit/miss/invalidation
   counters after each step. The trace is the determinism witness. *)
let dir_trace seed =
  Tb.run ~config:shard_config (fun tb ->
      let hosts = List.init 3 (fun i -> Tb.add_host tb (Printf.sprintf "h%d" i)) in
      let ctrls = List.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
      let procs =
        List.map2 (fun h c -> Tb.add_proc tb ~on:h ~ctrl:c "p") hosts ctrls
      in
      Tb.shard_all tb;
      List.iter
        (fun p ->
          Engine.spawn (fun () ->
              try
                let rec loop () =
                  ignore (Api.receive p);
                  loop ()
                in
                loop ()
              with _ -> ()))
        procs;
      let ctrls = Array.of_list ctrls in
      let procs = Array.of_list procs in
      let client = procs.(0) in
      let c0 = ctrls.(0) in
      (* one service per shard, all delegated to the shard-0 client *)
      let caps =
        Array.init 3 (fun i ->
            let h =
              Error.ok_exn (Api.request_create procs.(i) ~tag:"svc" ())
            in
            Tb.grant ~src:procs.(i) ~dst:client h)
      in
      let rng = Prng.create ~seed in
      let buf = Buffer.create 256 in
      let snap tag =
        Buffer.add_string buf
          (Printf.sprintf "%s gen=%d cache=%d hits=%d misses=%d inval=%d\n"
             tag (Controller.shard_gen c0) (Controller.dir_cache_size c0)
             (Obs.Metrics.counter_value c0.State.cm.State.cm_dir_hits)
             (Obs.Metrics.counter_value c0.State.cm.State.cm_dir_misses)
             (Obs.Metrics.counter_value
                c0.State.cm.State.cm_dir_invalidations))
      in
      for step = 1 to 24 do
        (match Prng.int rng 6 with
        | 0 | 1 | 2 ->
          (* cross-shard invoke: populates / exercises the directory *)
          let tgt = 1 + Prng.int rng 2 in
          (match
             Api.request_invoke_timeout client ~timeout:(Time.ms 2)
               caps.(tgt)
           with
          | Ok () | Error _ -> ())
        | 3 ->
          ignore
            (Api.request_invoke_timeout client ~timeout:(Time.ms 2) caps.(0))
        | _ ->
          (* crash + reboot a non-client shard: two generation bumps,
             wholesale directory invalidation on next use *)
          let victim = ctrls.(1 + Prng.int rng 2) in
          if Controller.is_running victim then begin
            Controller.fail victim;
            Engine.sleep (Time.us (10 + Prng.int rng 50));
            Controller.restart victim
          end);
        Engine.sleep (Time.us (5 + Prng.int rng 20));
        snap (Printf.sprintf "step%02d" step)
      done;
      (* quiescence, then the coherence obligation of Invariants pass 6:
         no current-generation cache entry may disagree with the shard
         map or name a dead owner *)
      Engine.sleep (Time.ms 5);
      Array.iter
        (fun c ->
          match Controller.dir_incoherences c with
          | [] -> ()
          | v ->
            QCheck.Test.fail_reportf "orphaned directory entries: %s"
              (String.concat "; " v))
        ctrls;
      snap "final";
      Buffer.contents buf)

let prop_dir_invalidation_deterministic =
  QCheck.Test.make
    ~name:"directory invalidation is bit-deterministic under crashes"
    ~count:8
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let a = dir_trace seed in
      let b = dir_trace seed in
      if a <> b then
        QCheck.Test.fail_reportf
          "seed %d produced two different directory traces:\n--- run 1\n\
           %s--- run 2\n%s"
          seed a b
      else true)

(* ------------------------------------------------------------------ *)
(* Placement-lease reclamation on forced timeouts                      *)
(* ------------------------------------------------------------------ *)

(* A placement that times out on the caller after the remote home already
   minted the object used to leak that object forever. With
   peer_ack_timeout forced below the controller-to-controller round trip,
   every remote placement times out; the homes must reclaim each leaked
   object when its lease expires, leaving no pending leases and only the
   locally-minted (successful) objects live. *)
let test_place_timeout_reclaims () =
  let tiny =
    {
      Net.Config.default with
      Net.Config.shard_placement = true;
      (* 1 ns: guaranteed below any peer round trip *)
      peer_ack_timeout = 1;
    }
  in
  Tb.run ~config:tiny (fun tb ->
      let hosts =
        List.init 2 (fun i -> Tb.add_host tb (Printf.sprintf "h%d" i))
      in
      let ctrls = List.map (fun h -> Tb.add_ctrl tb ~on:h) hosts in
      let procs =
        List.map2 (fun h c -> Tb.add_proc tb ~on:h ~ctrl:c "p") hosts ctrls
      in
      Tb.shard_all tb;
      let client = List.hd procs in
      let buf = Membuf.create ~node:(List.hd hosts) 64 in
      let oks = ref 0 and timeouts = ref 0 in
      for _ = 1 to 16 do
        match Api.memory_create client buf Perms.ro with
        | Ok _ -> incr oks
        | Error Error.Timeout -> incr timeouts
        | Error e -> Alcotest.failf "unexpected error %s" (Error.to_string e)
      done;
      Alcotest.(check bool) "some placements timed out" true (!timeouts > 0);
      Alcotest.(check bool) "some placements stayed local" true (!oks > 0);
      (* let every lease expire and the reclaim cleanups settle *)
      Engine.sleep (Time.ms 2);
      List.iter
        (fun c ->
          Alcotest.(check int)
            (Printf.sprintf "ctrl %d has no pending leases" (Controller.id c))
            0
            (Controller.placed_pending_count c))
        ctrls;
      let live =
        List.fold_left (fun n c -> n + Controller.live_objects c) 0 ctrls
      in
      Alcotest.(check int) "timed-out placements were reclaimed" !oks live)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "fractos_shard"
    [
      ( "map",
        [
          qtest prop_partition_total;
          qtest prop_place_respects_live_primary;
          qtest prop_route_identity_while_live;
          Alcotest.test_case "all-dead group routes nothing" `Quick
            test_all_dead_routes_nothing;
        ] );
      ("rebalance", [ qtest prop_rebalance_coherent ]);
      ("directory", [ qtest prop_dir_invalidation_deterministic ]);
      ( "placement",
        [
          Alcotest.test_case "timeout leases reclaimed" `Quick
            test_place_timeout_reclaims;
        ] );
    ]
