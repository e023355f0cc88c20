(* Figure 2 + headline (§1/§6.5): the message and traffic census of one
   inference request under the centralized and distributed models.

   The paper's counts: the centralized design needs 2.5x more data
   transfers and 1.6x more network messages (Fig. 2); the end-to-end
   baseline needs 8 control messages against FractOS's 5 and three network
   data transfers against FractOS's one; overall FractOS cuts traffic ~3x
   and runs 47% faster. *)

open Fractos_sim
module Sim = Fractos_sim
module Net = Fractos_net
module Tb = Fractos_testbed.Testbed
module E = E2e_common

(* Small requests, like the motivating per-client inference flow of
   Fig. 2: the control-plane savings are most visible when the kernel time
   does not dominate. *)
let batch = 4
let reqs = 6

(* Steady state: setup, one warm-up request, then a census over [reqs]
   requests. *)
let census system =
  E.run system ~max_batch:batch ~depth:1 (fun sys ->
      let rng = Prng.create ~seed:17 in
      E.verify_next sys rng ~batch;
      Net.Stats.reset sys.E.stats;
      let t0 = Engine.now () in
      for _ = 1 to reqs do
        E.verify_next sys rng ~batch
      done;
      let elapsed = (Engine.now () - t0) / reqs in
      (Net.Stats.census sys.E.stats, Net.Stats.per_link sys.E.stats, elapsed))

let link_bytes links a b =
  match List.assoc_opt (a, b) links with Some (_, bytes) -> bytes | None -> 0

let render = function
  | [ (_, (fr, fr_links, fr_lat)); (_, (bl, bl_links, bl_lat)) ] ->
    Bench_util.section
      "Figure 2 / headline: per-request network census of the inference flow";
    (* the database-image flow the paper's figure counts: every network hop
       a DB image crosses between the SSD and the GPU *)
    let probe_bytes = reqs * batch * E.img_size in
    let fr_db = link_bytes fr_links "storage" "gpu" in
    let bl_db =
      link_bytes bl_links "target" "nfs"
      + link_bytes bl_links "nfs" "frontend"
      + (link_bytes bl_links "frontend" "gpu" - probe_bytes)
    in
    let row label get =
      let f = get fr / reqs and b = get bl / reqs in
      [
        label;
        string_of_int f;
        string_of_int b;
        Printf.sprintf "%.1fx" (float_of_int b /. float_of_int f);
      ]
    in
    Bench_util.table
      ~header:[ ""; "FractOS (distributed)"; "Baseline (centralized)"; "ratio" ]
      ~rows:
        [
          row "network messages / request" (fun c -> c.Net.Stats.net_messages);
          row "control messages / request" (fun c ->
              c.Net.Stats.net_control_messages);
          row "data messages / request" (fun c ->
              c.Net.Stats.net_data_messages);
          row "network bytes / request" (fun c -> c.Net.Stats.net_bytes);
          [
            "DB-image flow bytes / request";
            string_of_int (fr_db / reqs);
            string_of_int (bl_db / reqs);
            Printf.sprintf "%.1fx" (float_of_int bl_db /. float_of_int fr_db);
          ];
          [
            "request latency (us)";
            Bench_util.us fr_lat;
            Bench_util.us bl_lat;
            Printf.sprintf "%.0f%% faster"
              ((Sim.Time.to_us_f bl_lat /. Sim.Time.to_us_f fr_lat -. 1.)
              *. 100.);
          ];
        ];
    Format.printf
      "[paper anchors: ~1.6x fewer messages, 2.5x fewer data transfers \
       (Fig. 2); ~3x traffic reduction and 47%% faster end to end (§6.5); \
       database-image data path: 3 transfers -> 1]@."
  | _ -> assert false

let experiment =
  Bench_util.experiment "fig2" ~inputs:[ Input E.db ]
    [
      Part
        {
          points = [ E.Fractos Tb.Ctrl_cpu; E.Baseline ];
          measure = census;
          render;
        };
    ]
