(* Per-resource utilization and queue-depth timelines reconstructed from
   span artifacts.

   Where Analysis answers "what was each *request* blocked on",
   Timeline answers the dual question: "what was each *resource* doing"
   — per controller, fabric link, copy-engine staging path and
   GPU/NVMe device, over the whole run. Each finished span is mapped to
   a resource by Span.layer (the taxonomy Analysis categorizes by), its
   leading ("q", ns) share is split out as queued time, and the
   per-resource interval set is reduced to busy/queued
   union coverage, concurrent-depth maxima and a bucketed utilization
   heatmap that renders as text. Works live (from the span collector)
   or offline (from a spans.csv artifact via {!Artifacts}). *)

type row = {
  r_name : string;
  r_node : string;
  r_start : Sim.Time.t;
  r_end : Sim.Time.t;
  r_queued : Sim.Time.t;  (* leading queued share, clipped to the span *)
}

(* Span taxonomy -> resource key "<layer>@<node>". The copy engine's
   staging path is split out from the rest of the controller: a
   saturated copy@ row with an idle ctrl@ row is exactly the decoupling
   the dedicated staging resource was built to show. *)
let resource_of r =
  Span.layer_name (Span.layer r.r_name)
  ^ "@"
  ^ if r.r_node = "" then "-" else r.r_node

let row_of_span (sp : Span.t) =
  if sp.Span.sp_kind <> Span.Complete || not sp.Span.sp_finished then None
  else if sp.Span.sp_end <= sp.Span.sp_start then None
  else
    let dur = sp.Span.sp_end - sp.Span.sp_start in
    let q = min (max (Span.queued sp) 0) dur in
    Some
      {
        r_name = sp.Span.sp_name;
        r_node = sp.Span.sp_node;
        r_start = sp.Span.sp_start;
        r_end = sp.Span.sp_end;
        r_queued = q;
      }

let rows_of_spans spans = List.filter_map row_of_span spans

(* ------------------------------------------------------------------ *)
(* Interval math                                                       *)
(* ------------------------------------------------------------------ *)

(* Union length of a list of half-open intervals, merging overlaps. *)
let merge ivs =
  let ivs =
    List.filter (fun (s, e) -> e > s) ivs
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  match ivs with
  | [] -> []
  | first :: rest ->
    let merged, last =
      List.fold_left
        (fun (acc, (cs, ce)) (s, e) ->
          if s <= ce then (acc, (cs, max ce e)) else ((cs, ce) :: acc, (s, e)))
        ([], first) rest
    in
    List.rev (last :: merged)

let union_length ivs = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 ivs

type resource = {
  rs_name : string;
  rs_spans : int;
  rs_busy : Sim.Time.t;  (* union of post-queue service intervals *)
  rs_queued : Sim.Time.t;  (* union of leading queued shares *)
  rs_max_depth : int;  (* peak concurrently-open spans *)
  rs_util : float array;  (* busy coverage per bucket, each in [0,1] *)
  rs_depth : int array;  (* peak depth per bucket *)
}

type t = {
  tl_start : Sim.Time.t;
  tl_end : Sim.Time.t;
  tl_buckets : int;
  tl_resources : resource list;  (* sorted by name *)
}

(* Spread interval coverage over the bucket array. *)
let bucketize ~t0 ~width ~buckets cells ivs =
  List.iter
    (fun (s, e) ->
      let b0 = max 0 ((s - t0) / width) in
      let b1 = min (buckets - 1) ((e - 1 - t0) / width) in
      for b = b0 to b1 do
        let bs = t0 + (b * width) and be = t0 + ((b + 1) * width) in
        let overlap = min e be - max s bs in
        if overlap > 0 then
          cells.(b) <-
            Float.min 1.0 (cells.(b) +. (float_of_int overlap /. float_of_int width))
      done)
    ivs

let depth_profile ~t0 ~width ~buckets cells ivs =
  (* Sweep +1/-1 edges; assign the running depth to every bucket the
     constant-depth segment overlaps. *)
  let edges =
    List.concat_map (fun (s, e) -> [ (s, 1); (e, -1) ]) ivs
    |> List.sort compare
  in
  let depth = ref 0 and maxd = ref 0 in
  let rec go = function
    | [] -> ()
    | (t, d) :: rest ->
      depth := !depth + d;
      if !depth > !maxd then maxd := !depth;
      let seg_end = match rest with [] -> t | (t', _) :: _ -> t' in
      if !depth > 0 && seg_end > t then begin
        let b0 = max 0 ((t - t0) / width)
        and b1 = min (buckets - 1) ((seg_end - 1 - t0) / width) in
        for b = b0 to b1 do
          if !depth > cells.(b) then cells.(b) <- !depth
        done
      end;
      go rest
  in
  go edges;
  !maxd

let build ?(buckets = 64) rows =
  let buckets = max 1 buckets in
  match rows with
  | [] -> { tl_start = 0; tl_end = 0; tl_buckets = buckets; tl_resources = [] }
  | _ ->
    let t0 = List.fold_left (fun a r -> min a r.r_start) max_int rows in
    let t1 = List.fold_left (fun a r -> max a r.r_end) min_int rows in
    let width = max 1 ((t1 - t0 + buckets - 1) / buckets) in
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun r ->
        let key = resource_of r in
        Hashtbl.replace tbl key
          (r
          :: (match Hashtbl.find_opt tbl key with Some l -> l | None -> [])))
      rows;
    let resources =
      Hashtbl.fold
        (fun name rs acc ->
          let split r = (r.r_start, r.r_start + r.r_queued, r.r_end) in
          let busy_ivs =
            merge (List.map (fun r -> let _, q, e = split r in (q, e)) rs)
          in
          let queued_ivs =
            merge (List.map (fun r -> let s, q, _ = split r in (s, q)) rs)
          in
          let util = Array.make buckets 0.0 in
          bucketize ~t0 ~width ~buckets util busy_ivs;
          let depth = Array.make buckets 0 in
          let maxd =
            depth_profile ~t0 ~width ~buckets depth
              (List.map (fun r -> (r.r_start, r.r_end)) rs)
          in
          {
            rs_name = name;
            rs_spans = List.length rs;
            rs_busy = union_length busy_ivs;
            rs_queued = union_length queued_ivs;
            rs_max_depth = maxd;
            rs_util = util;
            rs_depth = depth;
          }
          :: acc)
        tbl []
      |> List.sort (fun a b -> compare a.rs_name b.rs_name)
    in
    { tl_start = t0; tl_end = t1; tl_buckets = buckets; tl_resources = resources }

let of_spans ?buckets () = build ?buckets (rows_of_spans (Span.all ()))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let shades = " .:-=+*#%@"

let heat_char u =
  let i = int_of_float (u *. 10.) in
  shades.[max 0 (min (String.length shades - 1) i)]

let heatmap r = String.init (Array.length r.rs_util) (fun i -> heat_char r.rs_util.(i))

let elapsed t = t.tl_end - t.tl_start

let pp fmt t =
  let open Format in
  if t.tl_resources = [] then fprintf fmt "timeline: no spans collected@."
  else begin
    let span = elapsed t in
    fprintf fmt
      "per-resource timeline: %s total, %d buckets of %s (shade = busy \
       fraction, '%c' = saturated)@."
      (Sim.Time.to_string span) t.tl_buckets
      (Sim.Time.to_string ((span + t.tl_buckets - 1) / t.tl_buckets))
      shades.[String.length shades - 1];
    fprintf fmt "  %-18s %6s %6s %7s %5s@." "resource" "spans" "busy%"
      "queued%" "maxq";
    List.iter
      (fun r ->
        let pct v =
          if span <= 0 then 0.
          else 100. *. float_of_int v /. float_of_int span
        in
        fprintf fmt "  %-18s %6d %6.1f %7.1f %5d |%s|@." r.rs_name r.rs_spans
          (pct r.rs_busy) (pct r.rs_queued) r.rs_max_depth (heatmap r))
      t.tl_resources
  end
