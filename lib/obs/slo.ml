(* SLO burn-rate tracking over sliding windows of simulated time.

   Samples live in a deque ordered by arrival (= simulated time, which
   never goes backwards); eviction from the front keeps memory bounded
   by the longest window. Window membership is the half-open interval
   (now - w, now]: a sample at exactly now - w has aged out. Burn is
   bad-fraction over error budget, the standard SRE normalization that
   makes 1.0 mean "budget consumed exactly at the rate it accrues"
   regardless of how strict the goal is. *)

type objective = {
  o_name : string;
  o_latency : Sim.Time.t;
  o_latency_goal : float;
  o_error_goal : float;
  o_windows : Sim.Time.t list;
}

let default_windows = [ 1_000_000; 10_000_000; 100_000_000 ]

let make ?(latency = 1_000_000) ?(latency_goal = 0.99) ?(error_goal = 0.999)
    ?(windows = default_windows) name =
  if windows = [] then invalid_arg "Slo.make: no windows";
  {
    o_name = name;
    o_latency = latency;
    o_latency_goal = latency_goal;
    o_error_goal = error_goal;
    o_windows = windows;
  }

type sample = { s_time : Sim.Time.t; s_latency : Sim.Time.t; s_ok : bool }

type t = {
  obj : objective;
  max_window : Sim.Time.t;
  samples : sample Queue.t;
  mutable n_total : int;
  mutable burning_windows : (Sim.Time.t * bool) list;
      (* last check's burn state per window, for transition journaling *)
}

let create obj =
  {
    obj;
    max_window = List.fold_left max 0 obj.o_windows;
    samples = Queue.create ();
    n_total = 0;
    burning_windows = List.map (fun w -> (w, false)) obj.o_windows;
  }

let objective t = t.obj

let evict t now =
  (* samples at exactly (now - max_window) are outside every window *)
  let cutoff = now - t.max_window in
  while
    (not (Queue.is_empty t.samples)) && (Queue.peek t.samples).s_time <= cutoff
  do
    ignore (Queue.pop t.samples)
  done

let observe t ~latency ~ok =
  let now = Sim.Engine.now () in
  Queue.add { s_time = now; s_latency = latency; s_ok = ok } t.samples;
  t.n_total <- t.n_total + 1;
  evict t now

let samples t = Queue.length t.samples
let total t = t.n_total

type window_report = {
  w_window : Sim.Time.t;
  w_samples : int;
  w_latency_burn : float;
  w_error_burn : float;
}

let burn ~bad ~n ~goal =
  if n = 0 then 0.0
  else
    let budget = 1.0 -. goal in
    let frac = float_of_int bad /. float_of_int n in
    if budget <= 0.0 then if bad > 0 then infinity else 0.0
    else frac /. budget

let report t =
  let now = Sim.Engine.now () in
  evict t now;
  List.map
    (fun w ->
      let n = ref 0 and slow = ref 0 and errs = ref 0 in
      Queue.iter
        (fun s ->
          if s.s_time > now - w then begin
            incr n;
            if s.s_latency > t.obj.o_latency then incr slow;
            if not s.s_ok then incr errs
          end)
        t.samples;
      {
        w_window = w;
        w_samples = !n;
        w_latency_burn = burn ~bad:!slow ~n:!n ~goal:t.obj.o_latency_goal;
        w_error_burn = burn ~bad:!errs ~n:!n ~goal:t.obj.o_error_goal;
      })
    t.obj.o_windows

let burn_x1000 b =
  if b = infinity then max_int else int_of_float (Float.round (b *. 1000.))

let check t =
  let rs = report t in
  let worst = ref 0.0 in
  List.iter
    (fun r ->
      let w_name = Sim.Time.to_string r.w_window in
      Metrics.set
        (Metrics.gauge ~node:t.obj.o_name ("slo.latency_burn_x1000." ^ w_name))
        (burn_x1000 r.w_latency_burn);
      Metrics.set
        (Metrics.gauge ~node:t.obj.o_name ("slo.error_burn_x1000." ^ w_name))
        (burn_x1000 r.w_error_burn);
      let b = Float.max r.w_latency_burn r.w_error_burn in
      if b > !worst then worst := b;
      let was = List.assoc r.w_window t.burning_windows in
      let is_burning = b >= 1.0 in
      if is_burning <> was then begin
        t.burning_windows <-
          List.map
            (fun (w, s) -> if w = r.w_window then (w, is_burning) else (w, s))
            t.burning_windows;
        if is_burning then
          Journal.record ~node:t.obj.o_name ~sev:Journal.Warn ~kind:"slo.burn"
            ~detail:
              (Printf.sprintf "window=%s burn=%.2f (latency=%.2f error=%.2f)"
                 w_name b r.w_latency_burn r.w_error_burn)
            ()
        else
          Journal.record ~node:t.obj.o_name ~sev:Journal.Info
            ~kind:"slo.recover"
            ~detail:(Printf.sprintf "window=%s" w_name)
            ()
      end)
    rs;
  !worst

let pp_report fmt t =
  let rs = report t in
  Format.fprintf fmt "slo %s: latency<=%s@%.3f errors@%.3f@." t.obj.o_name
    (Sim.Time.to_string t.obj.o_latency)
    t.obj.o_latency_goal t.obj.o_error_goal;
  List.iter
    (fun r ->
      Format.fprintf fmt "  window=%-8s samples=%-6d latency_burn=%s \
                          error_burn=%s@."
        (Sim.Time.to_string r.w_window)
        r.w_samples
        (if r.w_latency_burn = infinity then "inf"
         else Printf.sprintf "%.2f" r.w_latency_burn)
        (if r.w_error_burn = infinity then "inf"
         else Printf.sprintf "%.2f" r.w_error_burn))
    rs
