(* Causal what-if profiler: marginal disaggregation-tax attribution by
   exact virtual speedup.

   Coz-style causal profiling answers "how much would end-to-end
   performance improve if component X were f times faster?" by
   *virtually* speeding X up (slowing everything else around it). In a
   deterministic discrete-event simulator the trick becomes exact: we
   re-run the identical seed with one component's service time actually
   scaled by f and measure the real goodput/p99 delta. Any queueing
   side effects (batches that now fill, doorbells that now coalesce)
   are faithfully included rather than approximated.

   This module is deliberately generic: components are opaque names and
   the measurement runner is injected, because the scaling knobs live in
   [Net.Config] (which sits *above* this library in the dependency
   order) and the scenario runner lives in the CLI. The ranking logic —
   mean goodput gain across speedup factors, name tie-break for
   bit-deterministic output — is what lives here. *)

type measurement = { m_goodput : float; m_p99_us : float }

type cell = { c_factor : float; c_meas : measurement }

type attribution = {
  a_component : string;
  a_cells : cell list;  (* one per factor, in input order *)
  a_gain : float;  (* mean % goodput gain across factors *)
  a_p99_drop : float;  (* mean % p99 reduction across factors *)
}

type t = {
  w_base : measurement;
  w_factors : float list;
  w_ranked : attribution list;  (* descending gain; name tie-break *)
}

let pct_gain ~base v = if base <= 0.0 then 0.0 else (v -. base) /. base *. 100.0
let pct_drop ~base v = if base <= 0.0 then 0.0 else (base -. v) /. base *. 100.0

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let profile ~components ~factors ~measure =
  let base = measure ~component:None ~factor:1.0 in
  let attributions =
    List.map
      (fun comp ->
        let cells =
          List.map
            (fun f ->
              { c_factor = f; c_meas = measure ~component:(Some comp) ~factor:f })
            factors
        in
        {
          a_component = comp;
          a_cells = cells;
          a_gain =
            mean
              (List.map
                 (fun c -> pct_gain ~base:base.m_goodput c.c_meas.m_goodput)
                 cells);
          a_p99_drop =
            mean
              (List.map
                 (fun c -> pct_drop ~base:base.m_p99_us c.c_meas.m_p99_us)
                 cells);
        })
      components
  in
  let ranked =
    List.sort
      (fun a b ->
        match compare b.a_gain a.a_gain with
        | 0 -> compare a.a_component b.a_component
        | c -> c)
      attributions
  in
  { w_base = base; w_factors = factors; w_ranked = ranked }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_goodput fmt g =
  if g >= 1e6 then Format.fprintf fmt "%.2fMreq/s" (g /. 1e6)
  else if g >= 1e3 then Format.fprintf fmt "%.1fkreq/s" (g /. 1e3)
  else Format.fprintf fmt "%.0freq/s" g

let pp fmt t =
  let open Format in
  fprintf fmt
    "causal what-if attribution (component service time scaled; exact virtual \
     speedup)@.";
  fprintf fmt "  baseline: goodput %a, p99 %.1fus@." pp_goodput
    t.w_base.m_goodput t.w_base.m_p99_us;
  List.iteri
    (fun i a ->
      fprintf fmt "  #%d %-8s mean goodput gain %+.1f%%, mean p99 drop %.1f%%@."
        (i + 1) a.a_component a.a_gain a.a_p99_drop;
      List.iter
        (fun c ->
          fprintf fmt "       x%.2f: goodput %a (%+.1f%%), p99 %.1fus (%+.1f%%)@."
            c.c_factor pp_goodput c.c_meas.m_goodput
            (pct_gain ~base:t.w_base.m_goodput c.c_meas.m_goodput)
            c.c_meas.m_p99_us
            (pct_gain ~base:t.w_base.m_p99_us c.c_meas.m_p99_us))
        a.a_cells)
    t.w_ranked;
  match t.w_ranked with
  | a :: b :: _ when a.a_gain > 0.0 ->
    fprintf fmt
      "  => '%s' dominates the tax: speeding it up buys %+.1f%% goodput \
       (next best '%s' %+.1f%%)@."
      a.a_component a.a_gain b.a_component b.a_gain
  | [ a ] when a.a_gain > 0.0 ->
    fprintf fmt "  => '%s' dominates the tax (%+.1f%% goodput)@." a.a_component
      a.a_gain
  | _ -> fprintf fmt "  => no component shows a positive goodput gain@."

let csv_header = "rank,component,factor,goodput,goodput_gain_pct,p99_us,p99_drop_pct"

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b (csv_header ^ "\n");
  Buffer.add_string b
    (Printf.sprintf "0,baseline,1.00,%.3f,0.0,%.3f,0.0\n" t.w_base.m_goodput
       t.w_base.m_p99_us);
  List.iteri
    (fun i a ->
      List.iter
        (fun c ->
          Buffer.add_string b
            (Printf.sprintf "%d,%s,%.2f,%.3f,%.3f,%.3f,%.3f\n" (i + 1)
               a.a_component c.c_factor c.c_meas.m_goodput
               (pct_gain ~base:t.w_base.m_goodput c.c_meas.m_goodput)
               c.c_meas.m_p99_us
               (pct_drop ~base:t.w_base.m_p99_us c.c_meas.m_p99_us)))
        a.a_cells)
    t.w_ranked;
  Buffer.contents b
