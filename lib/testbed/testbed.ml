module Sim = Fractos_sim
module Net = Fractos_net
module Core = Fractos_core

type t = { fabric : Net.Fabric.t; mutable ctrls : Core.Controller.t list }

let create ?config () = { fabric = Net.Fabric.create ?config (); ctrls = [] }
let run ?config f = Sim.Engine.run (fun () -> f (create ?config ()))
let add_host t name = Net.Fabric.add_node t.fabric ~name Net.Node.Host_cpu
let add_wimpy t name = Net.Fabric.add_node t.fabric ~name Net.Node.Wimpy_cpu

let register_ctrl t ctrl =
  t.ctrls <- ctrl :: t.ctrls;
  Core.Controller.connect t.ctrls;
  Core.Controller.start ctrl;
  ctrl

let add_ctrl t ~on = register_ctrl t (Core.Controller.create t.fabric ~node:on)

(* Promote every controller registered so far into one sharded capability
   space (full mesh + shared shard group). Call after the last add_ctrl:
   controllers registered later would rejoin the flat mesh only. *)
let shard_all t = Core.Controller.connect_shards t.ctrls

let add_snic_ctrl t ~host =
  let snic =
    Net.Fabric.add_node t.fabric ~attached_to:host
      ~name:(host.Net.Node.name ^ "-snic")
      Net.Node.Smart_nic
  in
  register_ctrl t (Core.Controller.create t.fabric ~node:snic)

let add_proc t ~on ~ctrl name =
  ignore t;
  let proc = Core.Process.create ~node:on name in
  Core.Controller.attach ctrl proc;
  proc

let fail_node t node =
  (* Controllers physically on the failed machine crash outright. *)
  let ctrl_node c = Core.State.(c.cnode) in
  List.iter
    (fun c ->
      if Net.Node.same_machine (ctrl_node c) node then Core.Controller.fail c)
    t.ctrls;
  (* Processes on the node that are managed by surviving (remote)
     Controllers are failed through the normal channel-severed path. *)
  List.iter
    (fun c ->
      if not (Net.Node.same_machine (ctrl_node c) node) then
        let procs =
          Hashtbl.fold
            (fun _ p acc ->
              if Net.Node.same_machine Core.State.(p.pnode) node then p :: acc
              else acc)
            Core.State.(c.procs) []
        in
        List.iter (fun p -> Core.Controller.fail_process c p) procs)
    t.ctrls

let grant ~src ~dst cid =
  let src_ctrl =
    match Core.Process.controller src with
    | Some c -> c
    | None -> invalid_arg "Testbed.grant: src not attached"
  in
  let dst_ctrl =
    match Core.Process.controller dst with
    | Some c -> c
    | None -> invalid_arg "Testbed.grant: dst not attached"
  in
  match Core.Controller.addr_of_cid src_ctrl src cid with
  | None -> invalid_arg "Testbed.grant: unknown capability"
  | Some addr -> Core.Controller.grant dst_ctrl dst addr

type placement = Ctrl_cpu | Ctrl_snic | Ctrl_shared
type node_setup = { node : Net.Node.t; ctrl : Core.Controller.t }

let nodes_with_ctrls t placement names =
  let nodes = List.map (fun name -> add_host t name) names in
  match placement with
  | Ctrl_cpu ->
    List.map (fun node -> { node; ctrl = add_ctrl t ~on:node }) nodes
  | Ctrl_snic ->
    List.map (fun node -> { node; ctrl = add_snic_ctrl t ~host:node }) nodes
  | Ctrl_shared -> (
    match nodes with
    | [] -> []
    | first :: _ ->
      let ctrl = add_ctrl t ~on:first in
      List.map (fun node -> { node; ctrl }) nodes)
