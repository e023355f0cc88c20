(* Critical-path / disaggregation-tax breakdown over a finished span tree.

   For each trace root we partition the root's wall-clock interval
   [root.start, root.end] into elementary intervals (bounded by the
   clipped start/end of every span in the subtree) and attribute each
   interval to the *deepest* span covering it — which, for the serial
   request trees the simulator produces, is exactly the critical path:
   whatever innermost activity the request was blocked on at that instant.
   Each attributed interval is then mapped to a tax category via the span
   taxonomy (Span.layer; see HACKING.md), so the six category columns always
   sum exactly to the request's end-to-end latency. *)

type category = Ctrl | Fabric | Queue | Device | Client | Idle

let categories = [ Ctrl; Fabric; Queue; Device; Client; Idle ]

let category_name = function
  | Ctrl -> "ctrl"
  | Fabric -> "fabric"
  | Queue -> "queue"
  | Device -> "device"
  | Client -> "client"
  | Idle -> "idle"

let category_of_span sp =
  match Span.layer sp.Span.sp_name with
  | Span.Ctrl | Span.Copy -> Ctrl
  | Span.Fabric -> Fabric
  | Span.Gpu | Span.Nvme | Span.Adaptor -> Device
  | Span.Client -> Client

type breakdown = {
  b_root : Span.t;
  b_total : Sim.Time.t;
  b_ns : (category * Sim.Time.t) list;  (* in [categories] order *)
}

let get b cat = try List.assoc cat b.b_ns with Not_found -> 0

(* One span clipped to the root's window, ready for the sweep. *)
type item = {
  it_start : Sim.Time.t;
  it_end : Sim.Time.t;
  it_depth : int;
  it_span : Span.t;
  it_qsplit : Sim.Time.t option;
      (* fabric spans carry a ("q", ns) attribute: time spent queued on
         NIC tx/rx before any bits moved. The span's first q ns are
         category Queue, the rest Fabric. *)
}

let usable sp = sp.Span.sp_kind = Span.Complete && sp.Span.sp_finished

let breakdown_of_root ~children root =
  let rs = root.Span.sp_start and re = root.Span.sp_end in
  (* Collect the subtree (depth-first; parent ids are always smaller than
     child ids so there are no cycles), clipping each span to the root's
     window. *)
  let items = ref [] in
  let rec go depth sp =
    if usable sp then begin
      let s = max sp.Span.sp_start rs and e = min sp.Span.sp_end re in
      if e > s || sp == root then begin
        let qsplit =
          let split = sp.Span.sp_start + Span.queued sp in
          if split > s && split < e then Some split else None
        in
        items :=
          { it_start = s; it_end = e; it_depth = depth; it_span = sp;
            it_qsplit = qsplit }
          :: !items
      end
    end;
    List.iter (go (depth + 1))
      (match Hashtbl.find_opt children sp.Span.sp_id with
      | Some l -> l
      | None -> [])
  in
  go 0 root;
  let items = !items in
  (* The window in which the root has live descendants: gaps there are
     genuine idle (waiting on an async reply); time before the first child
     or after the last is the root's own work. *)
  let first_child, last_child =
    List.fold_left
      (fun (fs, le) it ->
        if it.it_span == root then (fs, le)
        else (min fs it.it_start, max le it.it_end))
      (re, rs) items
  in
  (* Elementary interval boundaries: every clipped span edge plus every
     queue/wire split point. *)
  let bounds =
    List.concat_map
      (fun it ->
        match it.it_qsplit with
        | Some q -> [ it.it_start; it.it_end; q ]
        | None -> [ it.it_start; it.it_end ])
      items
    |> List.sort_uniq compare
  in
  let arr = Array.of_list (List.sort (fun a b -> compare a.it_start b.it_start) items) in
  let totals = Hashtbl.create 8 in
  let bump cat d =
    Hashtbl.replace totals cat
      (d + match Hashtbl.find_opt totals cat with Some v -> v | None -> 0)
  in
  let active = ref [] and idx = ref 0 in
  let rec sweep = function
    | t1 :: (t2 :: _ as rest) ->
      while !idx < Array.length arr && arr.(!idx).it_start <= t1 do
        active := arr.(!idx) :: !active;
        incr idx
      done;
      active := List.filter (fun it -> it.it_end > t1) !active;
      (* Deepest cover wins; ties broken by latest start then newest span,
         so a child that begins exactly when its sibling ends takes over. *)
      let best =
        List.fold_left
          (fun acc it ->
            match acc with
            | None -> Some it
            | Some b ->
              if
                it.it_depth > b.it_depth
                || (it.it_depth = b.it_depth
                   && (it.it_start > b.it_start
                      || (it.it_start = b.it_start
                         && it.it_span.Span.sp_id > b.it_span.Span.sp_id)))
              then Some it
              else acc)
          None !active
      in
      (match best with
      | None -> bump Idle (t2 - t1) (* unreachable: the root always covers *)
      | Some it ->
        let cat =
          if it.it_span == root && t1 >= first_child && t2 <= last_child then
            Idle
          else
            match it.it_qsplit with
            | Some split when t1 < split -> Queue
            | _ -> category_of_span it.it_span
        in
        bump cat (t2 - t1));
      sweep rest
    | _ -> ()
  in
  sweep bounds;
  {
    b_root = root;
    b_total = re - rs;
    b_ns =
      List.map
        (fun c ->
          (c, match Hashtbl.find_opt totals c with Some v -> v | None -> 0))
        categories;
  }

let analyze ?root_name () =
  let spans = Span.all () in
  let ids = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace ids sp.Span.sp_id ()) spans;
  let children = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.Span.sp_parent <> 0 then
        Hashtbl.replace children sp.Span.sp_parent
          (match Hashtbl.find_opt children sp.Span.sp_parent with
          | Some l -> l @ [ sp ]
          | None -> [ sp ]))
    spans;
  spans
  |> List.filter (fun sp ->
         usable sp
         && (sp.Span.sp_parent = 0 || not (Hashtbl.mem ids sp.Span.sp_parent))
         && sp.Span.sp_end > sp.Span.sp_start
         && match root_name with
            | Some n -> sp.Span.sp_name = n
            | None -> true)
  |> List.map (breakdown_of_root ~children)

(* ------------------------------------------------------------------ *)
(* Aggregation / rendering                                              *)
(* ------------------------------------------------------------------ *)

let totals bds =
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 bds in
  ( List.map (fun c -> (c, sum (fun b -> get b c))) categories,
    sum (fun b -> b.b_total) )

let csv_header =
  "root,node,id,start_ns,total_ns,ctrl_ns,fabric_ns,queue_ns,device_ns,client_ns,idle_ns"

let csv_row b =
  Printf.sprintf "%s,%s,%d,%d,%d,%s" b.b_root.Span.sp_name
    b.b_root.Span.sp_node b.b_root.Span.sp_id b.b_root.Span.sp_start b.b_total
    (String.concat "," (List.map (fun (_, v) -> string_of_int v) b.b_ns))

let csv_string bds =
  String.concat "\n" (csv_header :: List.map csv_row bds) ^ "\n"

let write_csv path bds =
  Out_channel.with_open_text path (fun oc -> output_string oc (csv_string bds));
  Span.warn_if_truncated path

let pp_report fmt bds =
  let open Format in
  let us v = float_of_int v /. 1e3 in
  fprintf fmt "disaggregation-tax breakdown (us on the critical path):@.";
  fprintf fmt "  %-24s %9s" "root" "total";
  List.iter (fun c -> fprintf fmt " %8s" (category_name c)) categories;
  fprintf fmt "@.";
  List.iter
    (fun b ->
      let label =
        match List.assoc_opt "id" b.b_root.Span.sp_attrs with
        | Some i -> Printf.sprintf "%s#%s" b.b_root.Span.sp_name i
        | None -> b.b_root.Span.sp_name
      in
      fprintf fmt "  %-24s %9.2f" label (us b.b_total);
      List.iter (fun (_, v) -> fprintf fmt " %8.2f" (us v)) b.b_ns;
      fprintf fmt "@.")
    bds;
  match totals bds with
  | _, 0 -> ()
  | by_cat, total ->
    fprintf fmt "  %-24s %9.2f" "aggregate" (us total);
    List.iter (fun (_, v) -> fprintf fmt " %8.2f" (us v)) by_cat;
    fprintf fmt "@.";
    fprintf fmt "  %-24s %9s" "share" "";
    List.iter
      (fun (_, v) ->
        fprintf fmt " %7.1f%%" (100. *. float_of_int v /. float_of_int total))
      by_cat;
    fprintf fmt "@."
