(* Run artifact sets: one directory per run, written from the live
   observability registries and reloadable for offline analysis.

   A run's artifact directory is the unit `fractos analyze` and
   `fractos diff` operate on: two runs captured with `--artifacts` can
   be compared long after the processes exited, which is what turns the
   per-run instrumentation into a regression-hunting workflow. Every
   file is a line-oriented text format this repo already emits
   elsewhere (OpenMetrics exposition, the histogram/breakdown CSVs), so
   the loader needs no external parsers. *)

let meta_file = "meta.txt"
let metrics_file = "openmetrics.txt"
let hist_file = "hist.csv"
let breakdown_file = "breakdown.csv"
let spans_file = "spans.csv"
let journal_file = "journal.txt"
let timeline_file = "timeline.txt"

let write_file path content =
  Out_channel.with_open_text path (fun oc -> output_string oc content)

let read_lines path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> Some (List.rev acc)
        in
        go [])

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

let spans_csv_header = "name,node,start_ns,end_ns,q_ns"

let spans_csv_string () =
  let b = Buffer.create 4096 in
  Buffer.add_string b (spans_csv_header ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%d,%d\n" r.Timeline.r_name
           r.Timeline.r_node r.Timeline.r_start r.Timeline.r_end
           r.Timeline.r_queued))
    (Timeline.rows_of_spans (Span.all ()));
  Buffer.contents b

let journal_digest_string () =
  let b = Buffer.create 256 in
  let kv k v = Buffer.add_string b (Printf.sprintf "%s=%d\n" k v) in
  kv "recorded" (Journal.recorded ());
  kv "held" (Journal.count ());
  kv "overflowed" (Journal.overflowed ());
  List.iter
    (fun sev ->
      kv
        ("overflowed." ^ Journal.severity_name sev)
        (Journal.overflowed_by_severity sev))
    [ Journal.Debug; Journal.Info; Journal.Warn; Journal.Error ];
  List.iter
    (fun (kind, n) -> kv ("kind." ^ kind) n)
    (List.sort compare (Journal.summary ()));
  Buffer.contents b

let save ~dir ~meta () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let p name = Filename.concat dir name in
  write_file (p meta_file)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s\n" k v) meta));
  write_file (p metrics_file) (Openmetrics.to_string ());
  write_file (p hist_file) (Openmetrics.histograms_csv_string ());
  let breakdown = Analysis.analyze () in
  write_file (p breakdown_file) (Analysis.csv_string breakdown);
  write_file (p spans_file) (spans_csv_string ());
  write_file (p journal_file) (journal_digest_string ());
  let tl = Timeline.of_spans () in
  write_file (p timeline_file) (Format.asprintf "%a" Timeline.pp tl)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type hist = {
  h_node : string;
  h_name : string;
  h_count : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type t = {
  a_dir : string;
  a_meta : (string * string) list;
  a_series : (string * float) list;
      (* OpenMetrics sample lines: "family{labels}" -> value *)
  a_hists : hist list;
  a_breakdown : (string * float) list;  (* category -> summed ns *)
  a_requests : int;  (* breakdown rows = analyzed request roots *)
  a_journal : (string * int) list;
  a_spans : Timeline.row list;
}

let split_kv line =
  match String.index_opt line '=' with
  | None -> None
  | Some i ->
    Some
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )

let parse_meta lines = List.filter_map split_kv lines

let parse_journal lines =
  List.filter_map
    (fun l ->
      match split_kv l with
      | Some (k, v) -> (
        match int_of_string_opt v with Some n -> Some (k, n) | None -> None)
      | None -> None)
    lines

(* "fractos_ctrl_admitted_total{node=\"snic\"} 123" -> key/value. The
   value is the last space-separated token; everything before is the
   series key (label values never contain spaces in our exposition). *)
let parse_series lines =
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.rindex_opt l ' ' with
        | None -> None
        | Some i -> (
          let key = String.sub l 0 i in
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          match float_of_string_opt v with
          | Some f -> Some (key, f)
          | None -> None))
    lines

let num cols i =
  if i < Array.length cols then
    Option.value ~default:0.0 (float_of_string_opt cols.(i))
  else 0.0

(* hist.csv: node,name,count,sum_ns,mean_ns,p50_ns,p95_ns,p99_ns,max_ns,
   exemplars — the numeric prefix is all the diff needs. *)
let parse_hists lines =
  match lines with
  | [] -> []
  | _header :: rows ->
    List.filter_map
      (fun l ->
        let cols = Array.of_list (String.split_on_char ',' l) in
        if Array.length cols < 9 then None
        else
          Some
            {
              h_node = cols.(0);
              h_name = cols.(1);
              h_count = num cols 2;
              h_mean = num cols 4;
              h_p50 = num cols 5;
              h_p95 = num cols 6;
              h_p99 = num cols 7;
              h_max = num cols 8;
            })
      rows

(* breakdown.csv:
   root,node,id,start_ns,total_ns,ctrl_ns,fabric_ns,queue_ns,device_ns,client_ns,idle_ns *)
let breakdown_categories =
  [ "total"; "ctrl"; "fabric"; "queue"; "device"; "client"; "idle" ]

let parse_breakdown lines =
  match lines with
  | [] -> ([], 0)
  | _header :: rows ->
    let sums = Array.make (List.length breakdown_categories) 0.0 in
    let n = ref 0 in
    List.iter
      (fun l ->
        let cols = Array.of_list (String.split_on_char ',' l) in
        if Array.length cols >= 11 then begin
          incr n;
          List.iteri (fun i _ -> sums.(i) <- sums.(i) +. num cols (4 + i))
            breakdown_categories
        end)
      rows;
    (List.mapi (fun i c -> (c, sums.(i))) breakdown_categories, !n)

(* spans.csv: name,node,start_ns,end_ns,q_ns (older directories carry a
   sixth column, cat, which is ignored) *)
let parse_spans lines =
  match lines with
  | [] -> []
  | _header :: rows ->
    List.filter_map
      (fun l ->
        let cols = Array.of_list (String.split_on_char ',' l) in
        if Array.length cols < 5 then None
        else
          let int i = int_of_float (num cols i) in
          Some
            {
              Timeline.r_name = cols.(0);
              r_node = cols.(1);
              r_start = int 2;
              r_end = int 3;
              r_queued = int 4;
            })
      rows

let load dir =
  if not (Sys.file_exists (Filename.concat dir meta_file)) then
    Error (Printf.sprintf "%s: not an artifact directory (no %s)" dir meta_file)
  else
    let lines name =
      Option.value ~default:[] (read_lines (Filename.concat dir name))
    in
    let breakdown, requests = parse_breakdown (lines breakdown_file) in
    Ok
      {
        a_dir = dir;
        a_meta = parse_meta (lines meta_file);
        a_series = parse_series (lines metrics_file);
        a_hists = parse_hists (lines hist_file);
        a_breakdown = breakdown;
        a_requests = requests;
        a_journal = parse_journal (lines journal_file);
        a_spans = parse_spans (lines spans_file);
      }

let timeline ?buckets t = Timeline.build ?buckets t.a_spans

(* ------------------------------------------------------------------ *)
(* Human-readable view (fractos analyze DIR)                           *)
(* ------------------------------------------------------------------ *)

let pp fmt t =
  let open Format in
  fprintf fmt "artifacts: %s@." t.a_dir;
  if t.a_meta <> [] then begin
    fprintf fmt "  meta:@.";
    List.iter (fun (k, v) -> fprintf fmt "    %s = %s@." k v) t.a_meta
  end;
  fprintf fmt "  metrics: %d series@." (List.length t.a_series);
  if t.a_requests > 0 then begin
    let total =
      match List.assoc_opt "total" t.a_breakdown with
      | Some v when v > 0.0 -> v
      | _ -> 1.0
    in
    fprintf fmt "  breakdown (%d requests):" t.a_requests;
    List.iter
      (fun (c, v) ->
        if c <> "total" then
          fprintf fmt " %s %.1f%%" c (100.0 *. v /. total))
      t.a_breakdown;
    fprintf fmt "@."
  end;
  if t.a_journal <> [] then begin
    let get k = Option.value ~default:0 (List.assoc_opt k t.a_journal) in
    fprintf fmt "  journal: %d recorded, %d overflowed (warn %d, error %d)@."
      (get "recorded") (get "overflowed") (get "overflowed.warn")
      (get "overflowed.error")
  end;
  let slow =
    List.filter (fun h -> h.h_count > 0.0) t.a_hists
    |> List.sort (fun a b -> compare b.h_p99 a.h_p99)
  in
  (match slow with
  | [] -> ()
  | hs ->
    fprintf fmt "  slowest histograms by p99:@.";
    List.iteri
      (fun i h ->
        if i < 5 then
          fprintf fmt "    %s/%s: n=%.0f mean=%.1fus p99=%.1fus@." h.h_node
            h.h_name h.h_count (h.h_mean /. 1e3) (h.h_p99 /. 1e3))
      hs);
  if t.a_spans <> [] then pp_print_string fmt (Format.asprintf "%a" Timeline.pp (timeline t))
