(* OpenMetrics / Prometheus text exposition of the metrics registry, plus
   a CSV export of histogram summaries — so bench results are
   machine-diffable across runs without parsing the human tables.

   Exposition format: one family per metric name (prefixed "fractos_",
   sanitized), one series per node. Counters get a "_total" suffix; gauge
   peaks become a sibling "<name>_peak" gauge family; histograms emit
   cumulative "le" buckets plus "_sum"/"_count", with bucket bounds taken
   from the registry's log-bucket layout. Values are nanoseconds wherever
   the registry's convention is nanoseconds. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let metric name = "fractos_" ^ sanitize name

(* Label values, unlike metric names, may contain anything (node names
   are free-form strings); the OpenMetrics exposition format requires
   backslash, double-quote, and line-feed escaped inside quoted label
   values. Everything else passes through untouched. *)
let escape_label s =
  if
    String.for_all (fun c -> c <> '\\' && c <> '"' && c <> '\n') s
  then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

(* Group a (node, name, v) list — already sorted by (node, name) — into
   per-name families, each with its series sorted by node. *)
let families rows =
  let tbl = Hashtbl.create 32 in
  let names = ref [] in
  List.iter
    (fun (node, name, v) ->
      if not (Hashtbl.mem tbl name) then names := name :: !names;
      Hashtbl.replace tbl name
        ((node, v)
        :: (match Hashtbl.find_opt tbl name with Some l -> l | None -> [])))
    rows;
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find tbl name))) !names

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_buffer b =
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun (name, series) ->
      let m = metric name in
      pr "# TYPE %s counter\n" m;
      List.iter (fun (node, v) -> pr "%s_total{node=\"%s\"} %d\n" m (escape_label node) v)
        series)
    (families (Metrics.counters_list ()));
  let gauges = Metrics.gauges_list () in
  List.iter
    (fun (name, series) ->
      let m = metric name in
      pr "# TYPE %s gauge\n" m;
      List.iter (fun (node, v) -> pr "%s{node=\"%s\"} %d\n" m (escape_label node) v) series)
    (families (List.map (fun (node, name, v, _) -> (node, name, v)) gauges));
  List.iter
    (fun (name, series) ->
      let m = metric name in
      pr "# TYPE %s gauge\n" m;
      List.iter (fun (node, v) -> pr "%s{node=\"%s\"} %d\n" m (escape_label node) v) series)
    (families
       (List.map (fun (node, name, _, peak) -> (node, name ^ "_peak", peak))
          gauges));
  List.iter
    (fun (name, series) ->
      let m = metric name in
      pr "# TYPE %s histogram\n" m;
      List.iter
        (fun (node, hs) ->
          let cum = ref 0 in
          List.iter
            (fun (upper, n) ->
              cum := !cum + n;
              pr "%s_bucket{node=\"%s\",le=\"%s\"} %d\n" m (escape_label node)
                (float_str upper) !cum)
            hs.Metrics.hs_buckets;
          pr "%s_bucket{node=\"%s\",le=\"+Inf\"} %d\n" m (escape_label node) hs.Metrics.hs_count;
          pr "%s_sum{node=\"%s\"} %s\n" m (escape_label node) (float_str hs.Metrics.hs_sum);
          pr "%s_count{node=\"%s\"} %d\n" m (escape_label node) hs.Metrics.hs_count)
        series)
    (families (Metrics.histograms_list ()));
  pr "# EOF\n"

let to_string () =
  let b = Buffer.create 4096 in
  to_buffer b;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Histogram summary CSV                                               *)
(* ------------------------------------------------------------------ *)

let histograms_csv_header =
  "node,name,count,sum_ns,mean_ns,p50_ns,p95_ns,p99_ns,max_ns,exemplars"

(* Exemplars from the tail sampler, keyed by bare histogram name: each
   "le<bound>:t<trace>" pairs a latency bucket's upper bound with a
   retained trace id, so a fat bucket in the CSV links straight to a
   span tree that landed in it. Empty when sampling is off. *)
let exemplars_for name =
  List.filter_map
    (fun (h, _bucket, upper, trace) ->
      if h = name then Some (Printf.sprintf "le%.0f:t%d" upper trace)
      else None)
    (Sampler.exemplars ())
  |> String.concat ";"

let histograms_csv_string () =
  let b = Buffer.create 1024 in
  Buffer.add_string b (histograms_csv_header ^ "\n");
  List.iter
    (fun (node, name, hs) ->
      if hs.Metrics.hs_count > 0 then begin
        let h = Metrics.histogram ~node name in
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%d,%s,%s,%s,%s,%s,%d,%s\n" node name
             hs.Metrics.hs_count
             (float_str hs.Metrics.hs_sum)
             (float_str (Metrics.mean h))
             (float_str (Metrics.p50 h))
             (float_str (Metrics.p95 h))
             (float_str (Metrics.p99 h))
             hs.Metrics.hs_max (exemplars_for name))
      end)
    (Metrics.histograms_list ());
  Buffer.contents b
