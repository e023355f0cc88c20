(* Model-based test of the bounded event ring behind Journal and Audit:
   random sequences of record, set_capacity, reset and enable/disable run
   through both, and each must match a list model — retained events are
   the last min(cap, n) recorded, with overflow/eviction counts, the
   journal's per-severity overflow and a cumulative per-kind summary. *)

module Sim = Fractos_sim
module Obs = Fractos_obs
module J = Obs.Journal
module A = Obs.Audit

type op =
  | Record of int * int  (** severity rank, kind index *)
  | Set_capacity of int
  | Reset
  | Enable of bool

let sevs = [| J.Debug; J.Info; J.Warn; J.Error |]
let audit_kinds = [| A.Mint; A.Delegate; A.Invoke |]
let jkind k = "k" ^ string_of_int k

let pp_op = function
  | Record (s, k) -> Printf.sprintf "record(%d,%d)" s k
  | Set_capacity n -> Printf.sprintf "cap(%d)" n
  | Reset -> "reset"
  | Enable b -> Printf.sprintf "enable(%b)" b

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (14, map2 (fun s k -> Record (s, k)) (0 -- 3) (0 -- 2));
        (2, map (fun n -> Set_capacity n) (0 -- 8));
        (1, return Reset);
        (3, map (fun b -> Enable b) bool);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_op ops))
    QCheck.Gen.(list_size (0 -- 80) gen_op)

(* What both rings expose, reduced to comparable values. Journal
   events are (seq, severity rank, kind); audit events (seq, kind). *)
type observed = {
  j_events : (int * int * int) list;
  j_recorded : int;
  j_overflowed : int;
  j_by_sev : int list;
  j_summary : (string * int) list;
  a_events : (int * int) list;
  a_evicted : int;
  a_summary : (A.kind * int) list;
}

let initial_cap = 4

(* The list model: one ring of (seq, sev, kind) triples. *)
let model ops =
  let on = ref true and cap = ref initial_cap and ring = ref [] in
  let next = ref 0 and over = ref 0 and by_sev = Array.make 4 0 in
  let by_kind = Array.make 3 0 in
  let drop () =
    match !ring with
    | (_, s, _) :: rest ->
      ring := rest;
      incr over;
      by_sev.(s) <- by_sev.(s) + 1
    | [] -> ()
  in
  List.iter
    (function
      | Record (s, k) when !on ->
        if List.length !ring >= !cap then drop ();
        ring := !ring @ [ (!next, s, k) ];
        incr next;
        by_kind.(k) <- by_kind.(k) + 1
      | Record _ -> ()
      | Set_capacity n ->
        cap := max 1 n;
        while List.length !ring > !cap do
          drop ()
        done
      | Reset ->
        ring := [];
        next := 0;
        over := 0;
        Array.fill by_sev 0 4 0;
        Array.fill by_kind 0 3 0
      | Enable b -> on := b)
    ops;
  let counts name =
    List.filter_map
      (fun k -> if by_kind.(k) > 0 then Some (name k, by_kind.(k)) else None)
      [ 0; 1; 2 ]
  in
  {
    j_events = !ring;
    j_recorded = !next;
    j_overflowed = !over;
    j_by_sev = Array.to_list by_sev;
    j_summary = counts jkind;
    a_events = List.map (fun (q, _, k) -> (q, k)) !ring;
    a_evicted = !over;
    a_summary = counts (fun k -> audit_kinds.(k));
  }

let index_of arr x =
  let rec go i = if arr.(i) = x then i else go (i + 1) in
  go 0

(* Run [ops] through the real Journal and Audit. *)
let run ops =
  J.reset ();
  A.reset ();
  J.set_capacity initial_cap;
  A.set_capacity initial_cap;
  J.set_enabled true;
  A.set_enabled true;
  Sim.Engine.run (fun () ->
      List.iteri
        (fun i -> function
          | Record (s, k) ->
            J.record_lazy ~node:"n" ~sev:sevs.(s) ~kind:(jkind k)
              ~detail:(fun () -> "") ();
            A.record ~node:"n" ~kind:audit_kinds.(k) ~ctrl:0 ~epoch:0 ~oid:i
              ()
          | Set_capacity n ->
            J.set_capacity n;
            A.set_capacity n
          | Reset ->
            J.reset ();
            A.reset ()
          | Enable b ->
            J.set_enabled b;
            A.set_enabled b)
        ops);
  let o =
    {
      j_events =
        List.map
          (fun (e : J.event) ->
            ( e.J.j_seq,
              index_of sevs e.J.j_sev,
              int_of_string (String.sub e.J.j_kind 1 1) ))
          (J.events ());
      j_recorded = J.recorded ();
      j_overflowed = J.overflowed ();
      j_by_sev = Array.to_list (Array.map J.overflowed_by_severity sevs);
      j_summary = J.summary ();
      a_events =
        List.map
          (fun (e : A.event) -> (e.A.au_seq, index_of audit_kinds e.A.au_kind))
          (A.events ());
      a_evicted = A.evicted ();
      a_summary = A.summary ();
    }
  in
  assert (J.count () = List.length o.j_events);
  assert (A.count () = List.length o.a_events);
  J.set_enabled false;
  A.set_enabled false;
  J.reset ();
  A.reset ();
  J.set_capacity 16_384;
  A.set_capacity (1 lsl 20);
  o

let prop_matches_model =
  QCheck.Test.make ~name:"journal and audit match the list model" ~count:300
    arb_ops (fun ops -> run ops = model ops)

let () =
  Alcotest.run "obs-ring"
    [
      ("ring", List.map QCheck_alcotest.to_alcotest [ prop_matches_model ]);
    ]
