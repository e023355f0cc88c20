(* Shared helpers for the experiment harness: table rendering and unit
   formatting. Every experiment prints the same rows/series the paper's
   table or figure reports, from deterministic simulated-time runs. *)

module Sim = Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs

(* Optional machine-readable output: when [csv_dir] is set (bench main's
   --csv flag), every printed table is also written as
   <dir>/<section-slug>-<n>.csv. *)
let csv_dir : string option ref = ref None

(* Optional Chrome traces: when [trace_dir] is set (bench main's --trace
   flag), experiments wrapped in [with_experiment] write
   <dir>/<name>.json, loadable in Perfetto. *)
let trace_dir : string option ref = ref None

(* Optional critical-path breakdowns: when [breakdown_dir] is set (bench
   main's --breakdown flag), experiments write <dir>/<name>.csv with one
   row per traced root span — the disaggregation-tax attribution of that
   experiment's requests (see Obs.Analysis). *)
let breakdown_dir : string option ref = ref None

(* Wall-clock start of the running experiment, stamped by
   [with_experiment] and read back by [meta_json]: every BENCH_*.json
   reports how long the sweep took on the host, alongside the simulated
   results (which never depend on it). *)
let wall_t0 = ref (Unix.gettimeofday ())

let with_experiment name f =
  wall_t0 := Unix.gettimeofday ();
  (* fresh metrics per experiment: counters, gauges and histograms must
     not bleed across experiments (handles stay interned — see
     Obs.Metrics.reset) *)
  Obs.Metrics.reset ();
  if !trace_dir = None && !breakdown_dir = None then f ()
  else begin
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.set_enabled false;
        (match !trace_dir with
        | Some dir ->
          Obs.Export.write_chrome_trace (Filename.concat dir (name ^ ".json"))
        | None -> ());
        match !breakdown_dir with
        | Some dir ->
          Obs.Analysis.write_csv
            (Filename.concat dir (name ^ ".csv"))
            (Obs.Analysis.analyze ())
        | None -> ())
      f
  end

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

(* Every bench runs its simulations serially on one domain; "domains"
   stays in the meta block so the BENCH_*.json schema is stable. *)
let meta_json ~seeds ~knobs () =
  Printf.sprintf
    "\"meta\": {\"git\": %S, \"seeds\": [%s], \"wallclock_s\": %.3f, \
     \"domains\": 1, \"cores\": %d, \"knobs\": {%s}}"
    (git_describe ())
    (String.concat ", " (List.map string_of_int seeds))
    (Unix.gettimeofday () -. !wall_t0)
    (Sim.Domains.recommended ())
    (String.concat ", " knobs)

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
