(* Per-layer counters, read from the always-on metrics registry and the
   fabric's traffic census around a measured phase. Instruments are keyed
   by (node, name); the benchmark sums counters and histograms over nodes
   and takes the highest per-node peak of each gauge. *)

module Metrics = Fractos_obs.Metrics
module Net_stats = Fractos_net.Stats

type hist = {
  nodes : int;  (** nodes that recorded this histogram *)
  count : int;
  sum : float;
  buckets : (float * int) list;  (** (inclusive upper bound, count), ascending *)
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * hist) list;
  census : Net_stats.census;
}

(* Fold (name, v) pairs into a name-sorted association list. *)
let group merge pairs =
  List.fold_left
    (fun acc (name, v) ->
      match List.assoc_opt name acc with
      | Some prev -> (name, merge prev v) :: List.remove_assoc name acc
      | None -> (name, v) :: acc)
    [] pairs
  |> List.sort compare

let merge_buckets a b =
  group ( + ) (a @ b) |> List.filter (fun (_, c) -> c <> 0)

let merge_hist a b =
  {
    nodes = a.nodes + b.nodes;
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    buckets = merge_buckets a.buckets b.buckets;
  }

let take fabric =
  {
    counters =
      group ( + )
        (List.map (fun (_, name, v) -> (name, v)) (Metrics.counters_list ()));
    hists =
      group merge_hist
        (List.map
           (fun (_, name, (s : Metrics.histogram_snapshot)) ->
             ( name,
               {
                 nodes = 1;
                 count = s.hs_count;
                 sum = s.hs_sum;
                 buckets = s.hs_buckets;
               } ))
           (Metrics.histograms_list ()));
    census = Net_stats.census (Fractos_net.Fabric.stats fabric);
  }

let peaks () =
  group max (List.map (fun (_, name, _, peak) -> (name, peak)) (Metrics.gauges_list ()))

(* What happened between two snapshots of the same run. *)
let diff before after =
  let sub_census (a : Net_stats.census) (b : Net_stats.census) =
    Net_stats.
      {
        messages = b.messages - a.messages;
        bytes = b.bytes - a.bytes;
        net_messages = b.net_messages - a.net_messages;
        net_bytes = b.net_bytes - a.net_bytes;
        net_control_messages = b.net_control_messages - a.net_control_messages;
        net_data_messages = b.net_data_messages - a.net_data_messages;
        net_control_bytes = b.net_control_bytes - a.net_control_bytes;
        net_data_bytes = b.net_data_bytes - a.net_data_bytes;
      }
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name before.counters)
  in
  let hist name (h : hist) =
    match List.assoc_opt name before.hists with
    | None -> h
    | Some p ->
      {
        h with
        count = h.count - p.count;
        sum = h.sum -. p.sum;
        buckets =
          merge_buckets h.buckets
            (List.map (fun (ub, c) -> (ub, -c)) p.buckets);
      }
  in
  {
    counters = List.map (fun (n, v) -> (n, v - counter n)) after.counters;
    hists = List.map (fun (n, h) -> (n, hist n h)) after.hists;
    census = sub_census before.census after.census;
  }

let counter s name = Option.value ~default:0 (List.assoc_opt name s.counters)
let hist s name = List.assoc_opt name s.hists

(* Upper bound of the bucket holding the nearest-rank [q] observation. *)
let hist_percentile h q =
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.count))) in
  let rec go cum = function
    | [] -> 0.
    | (ub, c) :: rest -> if cum + c >= rank then ub else go (cum + c) rest
  in
  if h.count = 0 then 0. else go 0 h.buckets
