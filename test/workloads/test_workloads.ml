(* Tests for the workload generators: the face dataset, the open-loop
   load generator and the scenario table. *)

open Fractos_sim
module Facedata = Fractos_workloads.Facedata
module Loadgen = Fractos_workloads.Loadgen
module Scenario = Fractos_workloads.Scenario
module Tb = Fractos_testbed.Testbed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Facedata                                                           *)
(* ------------------------------------------------------------------ *)

let test_images_deterministic () =
  check_bool "same id same image" true
    (Bytes.equal (Facedata.image ~img_size:64 ~id:3)
       (Facedata.image ~img_size:64 ~id:3));
  check_bool "different ids differ" false
    (Bytes.equal (Facedata.image ~img_size:64 ~id:3)
       (Facedata.image ~img_size:64 ~id:4))

let test_db_layout () =
  let db = Facedata.db ~img_size:32 ~n:8 in
  check_int "size" (32 * 8) (Bytes.length db);
  for i = 0 to 7 do
    check_bool
      (Printf.sprintf "entry %d in place" i)
      true
      (Bytes.equal (Bytes.sub db (i * 32) 32) (Facedata.image ~img_size:32 ~id:i))
  done

(* The one-probe batch for [id]: genuine, or an impostor. *)
let probe ~img_size ~id ~genuine =
  Facedata.probe_batch ~img_size ~start_id:id ~batch:1
    ~impostor_every:(if genuine then 0 else 1)

(* Images are generated in place into the database; each one must still
   be the genuine probe of its id, first and last included. *)
let test_db_images_are_genuine_probes () =
  let img_size = 48 and n = 16 in
  let db = Facedata.db ~img_size ~n in
  for i = 0 to n - 1 do
    check_bool
      (Printf.sprintf "image %d is the genuine probe" i)
      true
      (Bytes.equal
         (Bytes.sub db (i * img_size) img_size)
         (probe ~img_size ~id:i ~genuine:true))
  done

let test_probe_genuine_vs_impostor () =
  let image = Facedata.image ~img_size:32 ~id:5 in
  check_bool "genuine matches db" true
    (Bytes.equal (probe ~img_size:32 ~id:5 ~genuine:true) image);
  check_bool "impostor differs" false
    (Bytes.equal (probe ~img_size:32 ~id:5 ~genuine:false) image)

let test_expected_matches_align_with_batch () =
  let img_size = 16 and batch = 9 and impostor_every = 3 in
  let probes =
    Facedata.probe_batch ~img_size ~start_id:4 ~batch ~impostor_every
  in
  let expected = Facedata.expected_matches ~batch ~impostor_every in
  for i = 0 to batch - 1 do
    let p = Bytes.sub probes (i * img_size) img_size in
    let d = Facedata.image ~img_size ~id:(4 + i) in
    let matches = Bytes.equal p d in
    check_bool
      (Printf.sprintf "probe %d agrees with ground truth" i)
      (Bytes.get expected i = '\001')
      matches
  done

(* ------------------------------------------------------------------ *)
(* Loadgen                                                            *)
(* ------------------------------------------------------------------ *)

let test_summarize_percentiles () =
  let lats = Array.init 100 (fun i -> (100 - i) * 10) in
  let s = Loadgen.summarize lats 123 in
  check_int "n" 100 s.Loadgen.n;
  check_int "mean" 505 s.Loadgen.mean;
  check_int "p50" 510 s.Loadgen.p50;
  check_int "p99" 990 s.Loadgen.p99;
  check_int "max" 1000 s.Loadgen.max;
  check_int "elapsed" 123 s.Loadgen.elapsed

let test_summarize_empty () =
  (* [] used to raise Invalid_argument, crashing the report of any run
     that completed zero requests (heavy chaos shedding); it must return
     the all-zero summary instead *)
  let s = Loadgen.summarize [||] 456 in
  check_int "n" 0 s.Loadgen.n;
  check_int "mean" 0 s.Loadgen.mean;
  check_int "p50" 0 s.Loadgen.p50;
  check_int "p95" 0 s.Loadgen.p95;
  check_int "p99" 0 s.Loadgen.p99;
  check_int "max" 0 s.Loadgen.max;
  check_int "elapsed preserved" 456 s.Loadgen.elapsed

(* The list-based summary [Loadgen] computed before it recorded into an
   array: a polymorphic sort of the sample list, then the same
   nearest-rank percentiles. The array [summarize] must agree with it on
   every sample. *)
let reference_summary latencies elapsed =
  match latencies with
  | [] ->
    { Loadgen.n = 0; mean = 0; p50 = 0; p95 = 0; p99 = 0; max = 0; elapsed }
  | _ ->
    let sorted = Array.of_list (List.sort compare latencies) in
    let n = Array.length sorted in
    let pct p =
      let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      sorted.(max 0 (min (n - 1) idx))
    in
    {
      Loadgen.n;
      mean = List.fold_left ( + ) 0 latencies / n;
      p50 = pct 0.50;
      p95 = pct 0.95;
      p99 = pct 0.99;
      max = sorted.(n - 1);
      elapsed;
    }

let latencies_gen =
  QCheck.Gen.(
    oneof
      [
        (* no samples: the all-zero summary *)
        return [];
        (* wide range: few duplicates *)
        list_size (int_range 1 300) (int_bound 10_000_000);
        (* narrow range: many duplicates *)
        list_size (int_range 1 300) (int_bound 8);
        (* a single sample *)
        map (fun x -> [ x ]) (int_bound 10_000_000);
      ])

let prop_summarize_matches_list_reference =
  QCheck.Test.make ~name:"array summarize = list reference" ~count:300
    QCheck.(
      make ~print:Print.(pair (list int) int)
        Gen.(pair latencies_gen (int_bound 1_000_000)))
    (fun (latencies, elapsed) ->
      Loadgen.summarize (Array.of_list latencies) elapsed
      = reference_summary latencies elapsed)

(* Minor-heap words the generator itself allocates per request, with a
   request that does nothing: the arrival's fiber, its sleep and the
   latency record. *)
let words_per_open_loop_request ~n =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:5 in
      let w0 = Gc.minor_words () in
      let s = Loadgen.run_open_loop ~rng ~rate_per_s:1e6 ~n (fun _ -> ()) in
      let w1 = Gc.minor_words () in
      check_int "all completed" n s.Loadgen.n;
      (w1 -. w0) /. float_of_int n)

(* Measured at 20.0 words per request (x86-64, OCaml 5.1), plus ~25 %
   headroom; the request does no controller work, so running the
   controller as steps left it there. The same harness measured 27.0
   while each pending event was
   a boxed record, 36.0 when each arrival's fiber was a closure over the
   run's state, and 83.3 when each latency was consed onto a list and the
   list sorted polymorphically. *)
let open_loop_budget = 25.

let test_open_loop_alloc_budget () =
  let words = words_per_open_loop_request ~n:50_000 in
  Printf.printf "minor words per open-loop request: %.1f (budget %.0f)\n"
    words open_loop_budget;
  if words > open_loop_budget then
    Alcotest.failf "%.1f minor words per open-loop request, budget %.0f" words
      open_loop_budget

let test_open_loop_counts_and_rate () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:1 in
      (* each request takes 100 us; offered rate 1000/s => mean gap 1 ms:
         system is underloaded, latency stays at the service time *)
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:50 (fun _ ->
            Engine.sleep (Time.us 100))
      in
      check_int "all completed" 50 s.Loadgen.n;
      check_int "underloaded latency = service time" (Time.us 100)
        s.Loadgen.p99;
      (* elapsed should be near 50 arrivals x 1 ms *)
      check_bool "elapsed tracks offered rate" true
        (s.Loadgen.elapsed > Time.ms 20 && s.Loadgen.elapsed < Time.ms 120))

let test_open_loop_queueing_shows_in_tail () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:2 in
      (* single server, service 1 ms, offered 900/s: utilization 0.9 =>
         heavy queueing in the tail *)
      let server = Resource.create () in
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:900. ~n:80 (fun _ ->
            Resource.use server ~duration:(Time.ms 1))
      in
      check_bool "p99 well above service time" true
        (s.Loadgen.p99 > 2 * Time.ms 1))

let test_open_loop_zero_requests () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:3 in
      (* n = 0 used to deadlock: the completion ivar was never filled and
         the caller blocked forever; now it returns a zero summary *)
      let iv = Ivar.create () in
      Engine.spawn (fun () ->
          Ivar.fill iv
            (Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:0 (fun _ ->
                 Alcotest.fail "request fired for n = 0")));
      match Ivar.await_timeout iv ~timeout:(Time.ms 10) with
      | None -> Alcotest.fail "run_open_loop deadlocked on n = 0"
      | Some s ->
        check_int "zero samples" 0 s.Loadgen.n;
        check_int "zero mean" 0 s.Loadgen.mean;
        check_int "zero p99" 0 s.Loadgen.p99;
        check_int "zero elapsed" 0 s.Loadgen.elapsed)

let test_open_loop_negative_rejected () =
  Engine.run (fun () ->
      let rng = Prng.create ~seed:4 in
      match
        Loadgen.run_open_loop ~rng ~rate_per_s:1000. ~n:(-1) (fun _ -> ())
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "n = -1 accepted")

(* ------------------------------------------------------------------ *)
(* Scenario table                                                     *)
(* ------------------------------------------------------------------ *)

let small =
  {
    Scenario.img_size = 512;
    n_images = 64;
    batch = 4;
    depth = 2;
    clients = 2;
    timeout = Time.ms 50;
  }

(* Run [n] fault-free requests, round-robin over the clients; each must
   complete and pass the entry's own check. *)
let serve e sc rng n =
  for r = 0 to n - 1 do
    let k = r mod small.Scenario.clients in
    match (sc.Scenario.client k).Scenario.request rng () with
    | Ok { Scenario.line; bad = None } ->
        check_bool
          (Printf.sprintf "%s request %d has a line" (Scenario.name e) r)
          true (line <> "")
    | Ok { Scenario.bad = Some why; _ } ->
        Alcotest.failf "%s request %d: %s" (Scenario.name e) r why
    | Error err ->
        Alcotest.failf "%s request %d: %s" (Scenario.name e) r
          (Fractos_core.Error.to_string err)
  done

let test_every_entry_serves () =
  List.iter
    (fun e ->
      Tb.run ~config:(Scenario.config e Fractos_net.Config.default) (fun tb ->
          let sc = Scenario.deploy e small ~placement:Tb.Ctrl_cpu tb in
          let rng = Prng.create ~seed:3 in
          serve e sc rng 4;
          (* a refresh re-acquires what it can and leaves the client
             serving *)
          let now = { Scenario.within = (fun f -> f ()) } in
          for k = 0 to small.Scenario.clients - 1 do
            (sc.Scenario.client k).Scenario.refresh now
          done;
          serve e sc rng 2;
          check_bool
            (Scenario.name e ^ " has a summary")
            true
            (sc.Scenario.summary () <> "")))
    Scenario.all

(* Tracing observes a run and changes nothing in it: an entry's
   requests print the same lines, its summary is the same, and its run
   dispatches the same events and ends at the same instant, traced or
   not. [fault ()], if given, makes the hook that perturbs the messages
   the fabric books while the requests run; each request is then
   bounded, as a dropped message may leave it waiting forever. *)
let observed ?fault e ~traced =
  Fractos_core.Controller.reset_ids ();
  Fractos_core.Process.reset_ids ();
  Fractos_obs.Span.reset ();
  Fractos_obs.Span.set_enabled traced;
  Fun.protect
    ~finally:(fun () ->
      Fractos_obs.Span.set_enabled false;
      Fractos_obs.Span.reset ())
    (fun () ->
      Tb.run ~config:(Scenario.config e Fractos_net.Config.default) (fun tb ->
          let sc = Scenario.deploy e small ~placement:Tb.Ctrl_cpu tb in
          let fabric = tb.Tb.fabric in
          Option.iter
            (fun f -> Fractos_net.Fabric.set_fault_hook fabric (Some (f ())))
            fault;
          let rng = Prng.create ~seed:3 in
          let lines =
            List.init 6 (fun r ->
                let iv = Ivar.create () in
                let k = r mod small.Scenario.clients in
                let client = sc.Scenario.client k in
                Engine.spawn (fun () ->
                    Ivar.fill iv (client.Scenario.request rng ()));
                match Ivar.await_timeout iv ~timeout:(Time.ms 20) with
                | Some (Ok { Scenario.line; _ }) -> line
                | Some (Error err) -> Fractos_core.Error.to_string err
                | None -> "no answer")
          in
          Fractos_net.Fabric.set_fault_hook fabric None;
          (* past every sweep and lease the requests left armed *)
          Engine.sleep (Time.ms 50);
          let summary = sc.Scenario.summary () in
          (lines, summary, Engine.event_count (), Engine.now ())))

let check_same_run ?fault e =
  let name = Scenario.name e in
  let lines, summary, events, ended = observed ?fault e ~traced:false in
  let lines', summary', events', ended' = observed ?fault e ~traced:true in
  Alcotest.(check (list string)) (name ^ ": report lines") lines lines';
  Alcotest.(check string) (name ^ ": summary") summary summary';
  check_int (name ^ ": events") events events';
  check_int (name ^ ": end time") ended ended'

let test_traced_runs_the_same () = List.iter check_same_run Scenario.all

(* Every 53rd message the fabric books is dropped, every 31st
   duplicated and every 19th delayed (a local drop or duplicate is
   delivered as is); [drops] counts the drops on the network. *)
let test_traced_runs_the_same_under_faults () =
  let drops = ref 0 in
  let fault () =
    let n = ref 0 in
    fun ~src ~dst ~cls:_ ~size:_ ->
      incr n;
      if !n mod 53 = 0 then begin
        if not (Fractos_net.Node.same_machine src dst) then incr drops;
        Fractos_net.Fabric.Drop
      end
      else if !n mod 31 = 0 then Fractos_net.Fabric.Duplicate
      else if !n mod 19 = 0 then Fractos_net.Fabric.Delay (Time.us 3)
      else Fractos_net.Fabric.Pass
  in
  check_same_run ~fault (Result.get_ok (Scenario.find "xshard"));
  check_bool "messages were dropped on the network" true (!drops > 0)

let test_unknown_entry_lists_all () =
  match Scenario.find "no-such-workload" with
  | Ok _ -> Alcotest.fail "an unknown name resolved"
  | Error msg ->
      (* the names follow "one of: ", comma-separated, before the ")" *)
      let listed =
        match String.index_opt msg ':' with
        | None -> []
        | Some i ->
            String.sub msg (i + 2) (String.length msg - i - 3)
            |> String.split_on_char ',' |> List.map String.trim
      in
      Alcotest.(check (list string))
        msg
        (List.map Scenario.name Scenario.all)
        listed

let test_find_round_trips () =
  List.iter
    (fun e ->
      match Scenario.find (Scenario.name e) with
      | Ok e' -> check_bool (Scenario.name e) true (e' == e)
      | Error msg -> Alcotest.fail msg)
    Scenario.all

let () =
  Alcotest.run "fractos_workloads"
    [
      ( "facedata",
        [
          Alcotest.test_case "deterministic" `Quick test_images_deterministic;
          Alcotest.test_case "db layout" `Quick test_db_layout;
          Alcotest.test_case "db images are genuine probes" `Quick
            test_db_images_are_genuine_probes;
          Alcotest.test_case "genuine vs impostor" `Quick
            test_probe_genuine_vs_impostor;
          Alcotest.test_case "ground truth alignment" `Quick
            test_expected_matches_align_with_batch;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "percentiles" `Quick test_summarize_percentiles;
          Alcotest.test_case "empty samples" `Quick test_summarize_empty;
          Alcotest.test_case "open loop underload" `Quick
            test_open_loop_counts_and_rate;
          Alcotest.test_case "queueing tail" `Quick
            test_open_loop_queueing_shows_in_tail;
          Alcotest.test_case "zero requests" `Quick
            test_open_loop_zero_requests;
          Alcotest.test_case "negative rejected" `Quick
            test_open_loop_negative_rejected;
          QCheck_alcotest.to_alcotest prop_summarize_matches_list_reference;
          Alcotest.test_case "open loop alloc budget" `Quick
            test_open_loop_alloc_budget;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "every entry serves and checks" `Quick
            test_every_entry_serves;
          Alcotest.test_case "unknown name lists every entry" `Quick
            test_unknown_entry_lists_all;
          Alcotest.test_case "traced runs the same" `Quick
            test_traced_runs_the_same;
          Alcotest.test_case "traced runs the same under faults" `Quick
            test_traced_runs_the_same_under_faults;
          Alcotest.test_case "find round-trips every name" `Quick
            test_find_round_trips;
        ] );
    ]
