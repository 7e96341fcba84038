(* The seeded input generators.  The system under test sees only what
   these produce: an Erdős–Rényi graph and a cascade log with planted
   p = 0.3 influence, both drawn from one generator seeded by the
   workload seed (the graph from its own when [graph_seed] is given),
   split exclusively across [m] providers.

   Actions are dealt to providers round-robin rather than at random:
   Protocol 6 traffic depends on how many actions the first provider
   owns (its bundles skip the relay hop), and a random deal would make
   the work per release differ from seed to seed by whole bundles. *)

module State = Spe_rng.State

let workload ?graph_seed ?(p = 0.3) ~seed ~n ~edges ~actions ~m () =
  let s = State.create ~seed () in
  let g =
    Spe_graph.Generate.erdos_renyi_gnm
      (match graph_seed with Some gs -> State.create ~seed:gs () | None -> s)
      ~n ~m:edges
  in
  let planted = Spe_actionlog.Cascade.uniform_probabilities ~p g in
  let log =
    Spe_actionlog.Cascade.generate s planted
      { Spe_actionlog.Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  (g, Spe_actionlog.Partition.exclusive_by_action log ~owner:(fun a -> a mod m) ~m)

(* Plan seeds — a job's joint randomness: pair obfuscation, masks,
   keys — cycle through a fixed rotation that does not depend on the
   workload seed.  Key generation time varies with the plan seed; a
   fixed rotation, run whole, keeps that variation the same in every
   run. *)
let plan_seed i = 1 + i

let num_actions logs =
  Array.fold_left (fun acc l -> max acc (Spe_actionlog.Log.num_actions l)) 0 logs

(* Shift every record's time by one constant so the latest record of
   all the logs is at [max_time] (when none is later).  Time differences
   — all the protocols read — are unchanged, but the clock period is the
   same for every seed, and with it Protocol 6's packing width and so
   its ciphertext count. *)
let pin_clock ~max_time logs =
  let latest = Array.fold_left (fun acc l -> max acc (Spe_actionlog.Log.max_time l)) 0 logs in
  let shift = max 0 (max_time - latest) in
  Array.map
    (fun l ->
      Spe_actionlog.Log.map_records l
        (fun r -> { r with Spe_actionlog.Log.time = r.Spe_actionlog.Log.time + shift })
        ~num_users:(Spe_actionlog.Log.num_users l) ~num_actions:(Spe_actionlog.Log.num_actions l))
    logs
