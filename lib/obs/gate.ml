(* Performance regression gate: compare a freshly produced bench JSON
   against a committed baseline within a tolerance.

   The benches are seed-deterministic, so their --tiny variants produce
   stable headline numbers suitable for an exact-ish CI gate: knee
   goodput for the loadcurve sweep, per-shard-count knee goodput for the
   cluster scaling sweep, goodput per mode for the prefill/decode sweep.
   All gated metrics are higher-is-better throughputs; a run passes when
   every baseline metric is reproduced at >= (1 - tolerance) of its
   committed value. Improvements beyond the tolerance pass but are
   called out, nudging the baseline to be re-emitted so the gate
   tightens as the system gets faster. *)

let default_tolerance = 0.10

(* ------------------------------------------------------------------ *)
(* Metric extraction from bench JSON                                   *)
(* ------------------------------------------------------------------ *)

let knee points =
  List.fold_left
    (fun m p ->
      match Json.number_at [ "goodput_rps" ] p with
      | Some g -> Float.max m g
      | None -> m)
    0.0 points

let extract_loadcurve j =
  match Option.bind (Json.member "variants" j) Json.to_list with
  | None -> Error "loadcurve JSON has no variants array"
  | Some variants ->
    Ok
      (List.filter_map
         (fun v ->
           match
             ( Json.string_at [ "name" ] v,
               Option.bind (Json.member "points" v) Json.to_list )
           with
           | Some name, Some points ->
             Some ("knee_goodput_rps/" ^ name, knee points)
           | _ -> None)
         variants)

let extract_cluster j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "cluster JSON has no points array"
  | Some points ->
    Ok
      (List.filter_map
         (fun p ->
           match
             ( Json.number_at [ "shards" ] p,
               Json.number_at [ "knee_goodput_rps" ] p )
           with
           | Some s, Some k ->
             Some
               (Printf.sprintf "knee_goodput_rps/shards-%d" (int_of_float s), k)
           | _ -> None)
         points)

let extract_pd j =
  match Option.bind (Json.member "points" j) Json.to_list with
  | None -> Error "pd JSON has no points array"
  | Some points ->
    Ok
      (List.filter_map
         (fun p ->
           match
             ( Json.string_at [ "mode" ] p,
               Json.number_at [ "decodes" ] p,
               Json.number_at [ "kv_bytes" ] p,
               Json.number_at [ "goodput_rps" ] p )
           with
           | Some mode, Some d, Some kv, Some g ->
             Some
               ( Printf.sprintf "goodput_rps/%s-d%d-kv%d" mode
                   (int_of_float d)
                   (int_of_float kv / 1024),
                 g )
           | _ -> None)
         points)

let extract j =
  match Json.string_at [ "experiment" ] j with
  | Some "loadcurve" -> extract_loadcurve j
  | Some "cluster" -> extract_cluster j
  | Some "pd" -> extract_pd j
  | Some other -> Error ("unknown experiment kind " ^ other)
  | None -> Error "JSON has no \"experiment\" field"

(* A baseline file is either an emitted {"metrics": {...}} digest or a
   raw bench JSON (extracted on the fly). *)
let metrics_of_baseline j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    let nums =
      List.filter_map
        (fun (k, v) ->
          match Json.to_float v with Some f -> Some (k, f) | None -> None)
        kvs
    in
    if nums = [] then Error "baseline metrics object holds no numbers"
    else Ok nums
  | Some _ -> Error "baseline \"metrics\" is not an object"
  | None -> extract j

let baseline_tolerance j = Json.number_at [ "tolerance" ] j

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type metric = {
  g_name : string;
  g_base : float;
  g_fresh : float;  (* nan when the fresh run lacks the metric *)
  g_ratio : float;  (* fresh / base; 1.0 when base = 0 and fresh = 0 *)
  g_ok : bool;
}

type report = {
  r_tolerance : float;
  r_metrics : metric list;
  r_pass : bool;
  r_improved : string list;  (* metrics above base * (1 + tolerance) *)
}

let check ?tolerance ~baseline ~fresh () =
  match metrics_of_baseline baseline with
  | Error _ as e -> e
  | Ok base_metrics -> (
    match extract fresh with
    | Error _ as e -> e
    | Ok fresh_metrics ->
      let tol =
        match tolerance with
        | Some t -> t
        | None ->
          Option.value ~default:default_tolerance (baseline_tolerance baseline)
      in
      let metrics =
        List.map
          (fun (name, base) ->
            match List.assoc_opt name fresh_metrics with
            | None ->
              {
                g_name = name;
                g_base = base;
                g_fresh = Float.nan;
                g_ratio = 0.0;
                g_ok = false;
              }
            | Some f ->
              let ratio =
                if base > 0.0 then f /. base
                else if f = base then 1.0
                else 0.0
              in
              {
                g_name = name;
                g_base = base;
                g_fresh = f;
                g_ratio = ratio;
                g_ok = ratio >= 1.0 -. tol;
              })
          base_metrics
      in
      Ok
        {
          r_tolerance = tol;
          r_metrics = metrics;
          r_pass = metrics <> [] && List.for_all (fun m -> m.g_ok) metrics;
          r_improved =
            List.filter_map
              (fun m ->
                if m.g_ok && m.g_ratio > 1.0 +. tol then Some m.g_name
                else None)
              metrics;
        })

(* ------------------------------------------------------------------ *)
(* Baseline emission                                                   *)
(* ------------------------------------------------------------------ *)

let emit_string ?(scale = 1.0) ~source ~tolerance metrics =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"source\": %s,\n  \"tolerance\": %.3f,\n  \"metrics\": {\n"
       (Json.quote source) tolerance);
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    %s: %.3f%s\n" (Json.quote k) (v *. scale)
           (if i = List.length metrics - 1 then "" else ",")))
    metrics;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_result fmt r =
  let open Format in
  fprintf fmt "bench gate (tolerance %.0f%%):@." (r.r_tolerance *. 100.0);
  List.iter
    (fun m ->
      if Float.is_nan m.g_fresh then
        fprintf fmt "  FAIL %-36s base %.1f, missing from fresh run@." m.g_name
          m.g_base
      else
        fprintf fmt "  %s %-36s base %.1f, fresh %.1f (%.1f%%)@."
          (if m.g_ok then "ok  " else "FAIL")
          m.g_name m.g_base m.g_fresh (m.g_ratio *. 100.0))
    r.r_metrics;
  List.iter
    (fun name ->
      fprintf fmt
        "  note: %s improved beyond tolerance — consider re-emitting the \
         baseline@."
        name)
    r.r_improved;
  fprintf fmt "result: %s@." (if r.r_pass then "PASS" else "FAIL")
