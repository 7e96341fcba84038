(* links-bulk and scores-packed: whole-batch jobs run back to back, each
   a sharded [Plan] on the socket engine with the next plan seed of a
   fixed rotation.  A job is one release; its oracle is [Session.run]
   of the same plan on the simulated wire, computed before timing. *)

open Engine
module State = Spe_rng.State
module Shard = Spe_core.Shard
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6

let shards = 2

(* Set-up repetitions: input generation, the first plan build and one
   warm-up release each, a probe slice before each. *)
let setup_reps = 11

(* [generate ()] makes the inputs, [build inputs ps] the job's plan for
   plan seed [ps], [same] compares two results bit for bit. *)
let run ~probe ~what ~rotation ~seconds ~trace ~modulus ~generate
    ~(build : 'i -> int -> 'r Plan.t) ~(same : 'r -> 'r -> bool) =
  let job inputs ~traced i =
    let ps = Inputs.plan_seed (i mod rotation) in
    let t0 = Measure.now () in
    match
      let plan, plan_s = Measure.time (fun () -> build inputs ps) in
      let stages = run_stages ~traced plan.Plan.stages in
      let result, result_s = Measure.time plan.Plan.result in
      (plan_s, stages, result, result_s)
    with
    | exception e ->
      complain "%s job %d: %s" what i (Printexc.to_string e);
      (None, failed ~traced)
    | plan_s, stages, result, result_s ->
      let latency_s = Measure.now () -. t0 in
      (Some (result, stages), release_of_stages ~traced ~latency_s ~plan_s ~result_s stages)
  in
  let inputs = ref None in
  let setups =
    List.init setup_reps (fun _ ->
        snd
          (timed_setup ~probe (fun () ->
               let i = generate () in
               (match job i ~traced:false 0 with
               | Some _, _ -> ()
               | None, _ -> failwith (what ^ ": warm-up job failed"));
               inputs := Some i)))
  in
  let inputs = Option.get !inputs in
  let oracles =
    Measure.in_child (fun () -> Array.init rotation (fun i -> sim_run (build inputs (Inputs.plan_seed i))))
  in
  let issued = ref 0 in
  let next ~traced =
    let i = !issued in
    incr issued;
    let outcome, r = job inputs ~traced i in
    let t1 = Measure.now () in
    let expected, counts = oracles.(i mod rotation) in
    let ok =
      match outcome with
      | None -> false
      | Some (result, stages) ->
        let same_result = same expected result in
        if not same_result then complain "%s job %d: release differs from the simulated run" what i;
        counts_agree ~what counts stages && same_result
    in
    let r = if ok then r else { r with ok = false; latency_s = infinity } in
    (r, Measure.now () -. t1)
  in
  let gc = if trace then Some (gc_pass ~count:(2 * rotation) next) else None in
  let loop = closed_loop ~probe ~seconds ~trace ~cycle:(fun () -> !issued mod rotation = 0) next in
  {
    setups;
    loop;
    peak_mb = Measure.peak_rss_kb (Unix.getpid ()) /. 1024.;
    modulus;
    largest_payload = Array.fold_left (fun acc (_, c) -> max acc c.largest) 0 oracles;
    ciphertexts_per_release = 0.;
    gc;
    layers = [];
  }

let modulus = 1 lsl 40

(* Sec. 5.1 links, m = 3, h = 3, c = 2, S = 2^40. *)
let links_config = { Protocol4.c_factor = 2.; modulus; h = 3; estimator = Protocol4.Eq1 }

let links_bulk ~probe ~seed ~seconds ~trace =
  run ~probe ~what:"links-bulk" ~rotation:3 ~seconds ~trace ~modulus
    ~generate:(fun () -> Inputs.workload ~seed ~n:1000 ~edges:5000 ~actions:40 ~m:3 ())
    ~build:(fun (graph, logs) ps ->
      Shard.links_exclusive (State.create ~seed:ps ()) ~graph ~logs ~shards links_config)
    ~same:(fun (a : Protocol4.result) b -> Measure.same_strengths a.Protocol4.strengths b.Protocol4.strengths)

(* The key size scores-packed runs at, and the crypto calibration's. *)
let scores_key_bits = 512

(* Sec. 6 Protocol 6 with Paillier-512, plaintexts packed at full
   width, tau = 6.  It runs on one fixed graph: the plan build draws the pair
   obfuscation and then the keys from one generator, so on another
   graph the prime search would start elsewhere and cost another
   amount.  The action logs come from the workload seed. *)
let scores_graph_seed = 0x5c0e5
let scores_config =
  {
    Protocol6.default_config with
    Protocol6.key_bits = scores_key_bits;
    scheme = Protocol6.Paillier;
    pack_slots = Spe_mpc.Pack.max_packed_bits;
  }

let scores_packed ~probe ~seed ~seconds ~trace =
  let tau = 6 in
  let generate () =
    let graph, logs = Inputs.workload ~graph_seed:scores_graph_seed ~seed ~n:40 ~edges:60 ~actions:2 ~m:2 () in
    (graph, Inputs.pin_clock ~max_time:14 logs)
  in
  let r =
    run ~probe ~what:"scores-packed" ~rotation:5 ~seconds ~trace ~modulus ~generate
      ~build:(fun (graph, logs) ps ->
        Shard.user_scores_exclusive (State.create ~seed:ps ()) ~graph ~logs ~tau ~modulus ~shards
          scores_config)
      ~same:(fun (a : Spe_core.Driver_distributed.scores) b ->
        Measure.same_floats a.Spe_core.Driver_distributed.scores b.Spe_core.Driver_distributed.scores)
  in
  (* Ciphertexts per job: Protocol 6 alone on the same inputs, for its
     exact ciphertext count. *)
  let ciphertexts_per_release =
    if not trace then 0.
    else
      Measure.in_child (fun () ->
          let graph, logs = generate () in
          float_of_int
            (Protocol6.run
               (State.create ~seed:(Inputs.plan_seed 0) ())
               ~wire:(Wire.create ()) ~graph ~logs scores_config)
              .Protocol6.ciphertexts)
  in
  { r with ciphertexts_per_release }
