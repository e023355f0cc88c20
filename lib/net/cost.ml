type cls = Msg | Lookup | Serialize | Cap_transfer | Revoke

let base (cfg : Config.t) = function
  | Msg -> cfg.c_msg
  | Lookup -> Config.c_lookup
  | Serialize -> Config.c_serialize
  | Cap_transfer -> Config.c_cap_transfer
  | Revoke -> Config.c_revoke

let factor (kind : Node.kind) cls =
  match kind with
  | Node.Host_cpu -> 1.0
  | Node.Wimpy_cpu -> Config.wimpy_factor
  | Node.Smart_nic -> (
    match cls with
    | Msg -> Config.snic_m_msg
    | Lookup -> Config.snic_m_lookup
    | Serialize -> Config.snic_m_serialize
    | Cap_transfer -> Config.snic_m_cap
    | Revoke -> Config.snic_m_lookup)

(* Every controller charge funnels through [one]/[scaled], so applying
   the what-if factor here covers the whole control plane. The factor is
   folded into the node multiplier (1.0 stays the exact same float
   expression the seed evaluated, so defaults are bit-identical). *)
let one cfg kind cls =
  int_of_float
    (Float.round
       (float_of_int (base cfg cls) *. factor kind cls
       *. cfg.Config.scale_ctrl))

(* A plain recursion, not a [List.fold_left] closure: every controller
   charge passes through here. *)
let rec sum cfg kind acc = function
  | [] -> acc
  | (cls, n) :: rest -> sum cfg kind (acc + (n * one cfg kind cls)) rest

let v cfg kind units = sum cfg kind 0 units
let v_plus cfg kind units cls n = sum cfg kind (n * one cfg kind cls) units

let scaled cfg kind cls base =
  int_of_float
    (Float.round
       (float_of_int base *. factor kind cls *. cfg.Config.scale_ctrl))
