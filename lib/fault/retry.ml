type policy = {
  p_attempts : int;
  p_timeout : Sim.Time.t;
  p_backoff_base : Sim.Time.t;
  p_backoff_cap : Sim.Time.t;
}

let default =
  {
    p_attempts = 4;
    p_timeout = Sim.Time.ms 2;
    p_backoff_base = Sim.Time.us 10;
    p_backoff_cap = Sim.Time.us 640;
  }

let backoff policy ~attempt =
  if attempt <= 0 || policy.p_backoff_base <= 0 then 0
  else begin
    let d = ref policy.p_backoff_base in
    for _ = 2 to attempt do
      d := min (!d * 2) policy.p_backoff_cap
    done;
    min !d policy.p_backoff_cap
  end

let retryable = function
  | Core.Error.Timeout | Core.Error.Ctrl_unreachable | Core.Error.Stale
  | Core.Error.Provider_dead | Core.Error.Overloaded ->
      true
  | _ -> false

let with_timeout ~timeout f =
  let iv = Sim.Ivar.create () in
  Sim.Engine.spawn (fun () ->
      let r = try f () with Core.Error.Fractos e -> Error e in
      ignore (Sim.Ivar.try_fill iv r));
  if timeout <= 0 then Sim.Ivar.await iv
  else
    match Sim.Ivar.await_timeout iv ~timeout with
    | Some r -> r
    | None -> Error Core.Error.Timeout

let run ?(policy = default) ?(refresh = fun _ -> ()) f =
  let attempts = max 1 policy.p_attempts in
  let rec go attempt =
    let r = with_timeout ~timeout:policy.p_timeout f in
    match r with
    | Ok _ -> r
    | Error e when attempt < attempts && retryable e ->
        (if Obs.Journal.enabled () then
           Obs.Journal.record_lazy ~node:"" ~sev:Obs.Journal.Info ~kind:"retry"
             ~detail:(fun () ->
               Printf.sprintf "attempt=%d err=%s" attempt
                 (Core.Error.to_string e))
             ());
        refresh e;
        Sim.Engine.sleep (backoff policy ~attempt);
        go (attempt + 1)
    | Error _ -> r
  in
  go 1
