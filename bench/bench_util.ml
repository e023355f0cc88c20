(* The experiment harness: the declaration every experiment fills in, the
   runner that measures and renders them, table rendering and unit
   formatting. Every experiment prints the same rows/series the paper's
   table or figure reports, from deterministic simulated-time runs. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs

(* ------------------------------------------------------------------ *)
(* Experiments as data                                                 *)
(* ------------------------------------------------------------------ *)

(* One table (or group of tables) of an experiment: every point is
   measured by [measure] in its own simulation, then [render] prints the
   (point, result) pairs, in point order. *)
type part =
  | Part : {
      points : 'p list;
      measure : 'p -> 'r;
      render : ('p * 'r) list -> unit;
    }
      -> part

type experiment = { name : string; parts : part list }

let experiment name parts = { name; parts }

(* Optional machine-readable output: when [csv_dir] is set (bench main's
   --csv flag), every printed table is also written as
   <dir>/<section-slug>-<n>.csv. *)
let csv_dir : string option ref = ref None

(* Wall-clock start of the running experiment, stamped by [run] and read
   back by [meta_json]: every BENCH_*.json reports how long the sweep
   took on the host, alongside the simulated results (which never depend
   on it). *)
let wall_t0 = ref (Unix.gettimeofday ())

(* Every point starts from the same state, whatever ran before it: fresh
   metrics and id counters. *)
let prepare () =
  Obs.Metrics.reset ();
  Fractos_core.Controller.reset_ids ();
  Fractos_core.Process.reset_ids ()

let measure_and_render e =
  wall_t0 := Unix.gettimeofday ();
  List.iter
    (fun (Part p) ->
      p.render
        (List.map
           (fun x ->
             prepare ();
             (x, p.measure x))
           p.points))
    e.parts

(* Measure and render [exps] in order.
   With a [trace_dir] (bench main's --trace) each experiment also writes
   <dir>/<name>.json, loadable in Perfetto; with a [breakdown_dir]
   (--breakdown) it writes <dir>/<name>.csv, one row per traced root
   span: the disaggregation-tax attribution of its requests (see
   Obs.Analysis). *)
let run ~trace_dir ~breakdown_dir exps =
  List.iter
    (fun e ->
      if trace_dir = None && breakdown_dir = None then measure_and_render e
      else begin
        Obs.Span.reset ();
        Obs.Span.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Obs.Span.set_enabled false;
            Option.iter
              (fun dir ->
                Obs.Export.write_chrome_trace
                  (Filename.concat dir (e.name ^ ".json")))
              trace_dir;
            Option.iter
              (fun dir ->
                Obs.Analysis.write_csv
                  (Filename.concat dir (e.name ^ ".csv"))
                  (Obs.Analysis.analyze ()))
              breakdown_dir)
          (fun () -> measure_and_render e)
      end)
    exps

(* Provenance stamp for machine-readable outputs (BENCH_*.json): the
   commit the numbers came from, the PRNG seeds, and the sweep knobs.
   [knobs] is a list of ready-made ["key": value] JSON fragments. *)
let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

let meta_json ~seeds ~knobs () =
  Printf.sprintf
    "\"meta\": {\"git\": %S, \"seeds\": [%s], \"wallclock_s\": %.3f, \
     \"cores\": %d, \"knobs\": {%s}}"
    (git_describe ())
    (String.concat ", " (List.map string_of_int seeds))
    (Unix.gettimeofday () -. !wall_t0)
    (Domain.recommended_domain_count ())
    (String.concat ", " knobs)

(* Write a BENCH_*.json and say so on stdout. *)
let write_json path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Format.printf "[wrote %s]@." path

let current_slug = ref "untitled"
let table_counter = ref 0

let slugify title =
  let b = Buffer.create 24 in
  String.iter
    (fun c ->
      if Buffer.length b < 32 then
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' ->
          Buffer.add_char b (Char.lowercase_ascii c)
        | ' ' | '-' | '_' | ':' | '/' ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-'
          then Buffer.add_char b '-'
        | _ -> ())
    title;
  let s = Buffer.contents b in
  if s = "" then "untitled" else s

let section title =
  current_slug := slugify title;
  table_counter := 0;
  Format.printf "@.=== %s ===@." title

let subsection title = Format.printf "@.--- %s ---@." title

let write_csv ~header ~rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    incr table_counter;
    let path =
      Filename.concat dir
        (Printf.sprintf "%s-%d.csv" !current_slug !table_counter)
    in
    let oc = open_out path in
    let quote s =
      if String.exists (fun c -> c = ',' || c = '"') s then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
      else s
    in
    List.iter
      (fun row -> output_string oc (String.concat "," (List.map quote row) ^ "\n"))
      (header :: rows);
    close_out oc

(* Render a fixed-width table. *)
let table_print ~header ~rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m r ->
        match List.nth_opt r c with
        | Some s -> max m (String.length s)
        | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let pr_row r =
    List.iteri
      (fun c w ->
        let s = match List.nth_opt r c with Some s -> s | None -> "" in
        if c = 0 then Format.printf "%-*s" w s
        else Format.printf "  %*s" w s)
      widths;
    Format.printf "@."
  in
  pr_row header;
  pr_row (List.map (fun w -> String.make w '-') widths);
  List.iter pr_row rows

let table ~header ~rows =
  write_csv ~header ~rows;
  table_print ~header ~rows

let us t = Format.asprintf "%.2f" (Sim.Time.to_us_f t)
let ms t = Format.asprintf "%.3f" (Sim.Time.to_ms_f t)

(* Throughput in MB/s given bytes moved in simulated time. *)
let mbps ~bytes t =
  if t = 0 then "inf"
  else Format.asprintf "%.0f" (float_of_int bytes /. Sim.Time.to_s_f t /. 1e6)

(* Operations (or items) per second. *)
let per_sec ~n t =
  if t = 0 then "inf"
  else Format.asprintf "%.0f" (float_of_int n /. Sim.Time.to_s_f t)

let kib n = n * 1024
let show_size n =
  if n >= 1 lsl 20 then Printf.sprintf "%dM" (n lsr 20)
  else if n >= 1024 then Printf.sprintf "%dK" (n lsr 10)
  else Printf.sprintf "%dB" n

(* Mean of [reps] runs of a deterministic measurement (reps > 1 only
   matters when the workload itself draws random offsets). *)
let mean_of reps f =
  let rec go i acc = if i = reps then acc / reps else go (i + 1) (acc + f i) in
  go 0 0

(* Horizontal grouped bar chart: one group per x value, one bar per
   series, scaled to the global maximum — so the printed output reads
   like the paper's figure, not just its numbers. *)
let grouped_bars ~value_label ~rows =
  let all_values = List.concat_map (fun (_, bars) -> List.map snd bars) rows in
  let vmax = List.fold_left max 1e-9 all_values in
  let width = 40 in
  let xw =
    List.fold_left (fun m (x, _) -> max m (String.length x)) 0 rows
  in
  let sw =
    List.fold_left
      (fun m (_, bars) ->
        List.fold_left (fun m (s, _) -> max m (String.length s)) m bars)
      0 rows
  in
  List.iter
    (fun (x, bars) ->
      List.iteri
        (fun i (series, v) ->
          let n = int_of_float (Float.round (v /. vmax *. float_of_int width)) in
          Format.printf "%-*s  %-*s %s %.4g@."
            xw
            (if i = 0 then x else "")
            sw series
            (String.concat "" (List.init (max n 1) (fun _ -> "\xe2\x96\x88")))
            v)
        bars;
      Format.printf "@.")
    rows;
  Format.printf "(%s, bars scaled to %.4g)@." value_label vmax

(* The points of a table with one row per [x] and one column per
   labelled series: every (x, series) pair, row by row. *)
let grid xs series =
  List.concat_map (fun x -> List.map (fun s -> (x, s)) series) xs

(* Measure a [grid] cell whose series is a function of the row's x. *)
let cell (x, (_, f)) = f x

(* Regroup the results of a [grid] with [n] series into its rows. *)
let rows n res =
  let rec go acc = function
    | [] -> List.rev acc
    | ((x, _), _) :: _ as res ->
      let row = List.filteri (fun i _ -> i < n) res in
      go ((x, List.map snd row) :: acc) (List.filteri (fun i _ -> i >= n) res)
  in
  go [] res

(* The commonest part: a [grid] of [xs] by labelled [series], measured
   cell by cell and printed under [title] as one table, a row per x
   ([show] prints the x, [fmt] each result) and a column per series,
   then the [anchor] line unless it is empty. *)
let grid_table ~title ~corner ~show ~fmt ~anchor xs series measure =
  Part
    {
      points = grid xs series;
      measure;
      render =
        (fun res ->
          section title;
          table
            ~header:(corner :: List.map fst series)
            ~rows:
              (List.map
                 (fun (x, rs) -> show x :: List.map fmt rs)
                 (rows (List.length series) res));
          if anchor <> "" then Format.printf "%s@." anchor);
    }

(* A [grid_table] of latencies (usec) drawn again as grouped bars, one
   group per x, so the output reads like the paper's figure. *)
let latency_figure ~title ~corner ~show ~value_label ~anchor xs series measure
    =
  Part
    {
      points = grid xs series;
      measure;
      render =
        (fun res ->
          let grid =
            List.map
              (fun (x, ts) -> (show x, List.combine (List.map fst series) ts))
              (rows (List.length series) res)
          in
          section title;
          table
            ~header:(corner :: List.map fst series)
            ~rows:
              (List.map
                 (fun (x, bars) -> x :: List.map (fun (_, t) -> us t) bars)
                 grid);
          Format.printf "@.";
          grouped_bars ~value_label
            ~rows:
              (List.map
                 (fun (x, bars) ->
                   (x, List.map (fun (s, t) -> (s, Sim.Time.to_us_f t)) bars))
                 grid);
          if anchor <> "" then Format.printf "%s@." anchor);
    }

(* Closed loop: [inflight] fibers issue [reqs] calls [f i] in total, [i]
   counting issues from 0; returns the simulated time from the first
   issue to the last completion. *)
let closed_loop ~inflight ~reqs f =
  let issued = ref 0 and completed = ref 0 in
  let t0 = Sim.Engine.now () in
  let done_ = Sim.Ivar.create () in
  for _ = 1 to inflight do
    Sim.Engine.spawn (fun () ->
        let rec loop () =
          if !issued < reqs then begin
            let i = !issued in
            incr issued;
            f i;
            incr completed;
            if !completed = reqs then Sim.Ivar.fill done_ ();
            loop ()
          end
        in
        loop ())
  done;
  Sim.Ivar.await done_;
  Sim.Engine.now () - t0
