module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Propagation = Spe_influence.Propagation

type scores = { scores : float array; graphs : Propagation.t array }

(* The final unmasking phase of the score pipeline ([Shard]): mask
   agreement (rounds 1-2), masked denominators to the host (round 3),
   then the blinded round-trip host -> player 1 -> host (rounds 4-5),
   the host dividing at its finishing call.  [numerators_of] is forced
   inside the host program at round 4, after every earlier phase has
   executed. *)
let scores_final_phase ~n ~p0 ~p1 ~masks ~blinds ~share1 ~share2 ~numerators_of =
  let scores_ref = ref [||] in
  let player me other share_of is_player1 ~round ~inbox =
    match round with
    | 1 | 2 ->
      [ { Runtime.src = me; dst = other; payload = Runtime.Floats (Array.make n 0.) } ]
    | 3 ->
      let share = share_of () in
      [ { Runtime.src = me; dst = Wire.Host;
          payload =
            Runtime.Floats (Array.init n (fun i -> masks.(i) *. float_of_int share.(i))) } ]
    | 5 when is_player1 -> (
      match
        List.find_map
          (fun msg ->
            match msg.Runtime.payload with
            | Runtime.Floats v when msg.Runtime.src = Wire.Host -> Some v
            | _ -> None)
          inbox
      with
      | Some to_p1 ->
        [ { Runtime.src = me; dst = Wire.Host;
            payload = Runtime.Floats (Array.init n (fun i -> to_p1.(i) *. masks.(i))) } ]
      | None -> [])
    | _ -> []
  in
  let v1 = ref None and v2 = ref None in
  let host_program ~round ~inbox =
    let floats_from party =
      List.find_map
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Floats v when msg.Runtime.src = party -> Some v
          | _ -> None)
        inbox
    in
    match round with
    | 4 -> (
      (match floats_from p0 with Some v -> v1 := Some v | None -> ());
      (match floats_from p1 with Some v -> v2 := Some v | None -> ());
      match (!v1, !v2) with
      | Some a, Some b ->
        let masked_denominators = Array.init n (fun i -> a.(i) +. b.(i)) in
        let numerators = numerators_of () in
        let to_p1 =
          Array.init n (fun i ->
              if masked_denominators.(i) = 0. then 0.
              else blinds.(i) *. float_of_int numerators.(i) /. masked_denominators.(i))
        in
        [ { Runtime.src = Wire.Host; dst = p0; payload = Runtime.Floats to_p1 } ]
      | _ -> [])
    | 6 ->
      (match floats_from p0 with
      | Some from_p1 -> scores_ref := Array.init n (fun i -> from_p1.(i) /. blinds.(i))
      | None -> ());
      []
    | _ -> []
  in
  Session.with_label "scores-final"
    (Session.make
       ~parties:[| p0; p1; Wire.Host |]
       ~programs:[| player p0 p1 share1 true; player p1 p0 share2 false; host_program |]
       ~rounds:5
       ~result:(fun () -> !scores_ref))
