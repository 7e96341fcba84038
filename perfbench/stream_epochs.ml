(* stream-epochs: arrivals from seeded [Source]s go into windowed
   [Stream] accumulators, and each epoch is released by a
   [Delta.epoch_plan ~mode:Delta] on the socket engine.  An epoch is one
   release; its ingestion (taking the epoch's arrivals and snapshotting
   the windowed counters) is part of it, and the next starts when it is
   out.

   Epochs differ widely in cost (dirty groups grow and shrink as the
   window moves), so a run measures whole passes: an instance releases
   its first [pass] epochs, and a fresh instance then replays them, its
   construction charged to its first release.  The oracle is the same
   pass in [~mode:Full] on the simulated engine: every release's digest
   must match it, and the exact counts must match the Delta pass on the
   simulated engine. *)

open Engine
module State = Spe_rng.State
module Log = Spe_actionlog.Log
module Source = Spe_actionlog.Source
module Stream = Spe_influence.Stream
module Counters = Spe_influence.Counters
module Protocol4 = Spe_core.Protocol4
module Delta = Spe_core.Delta

let epoch_ticks = 25
let window = 8
let rate = 2.0
let burstiness = 0.3
let jitter = 2
let config = { Protocol4.c_factor = 2.; modulus = 1 lsl 40; h = 2; estimator = Protocol4.Eq1 }
let plan_seed = Inputs.plan_seed 0
let pass = 37
let setup_reps = 11

type instance = { delta : Delta.t; sources : Source.t array; streams : Stream.t array }

let create ~graph ~logs =
  let num_actions = Inputs.num_actions logs in
  let delta =
    Delta.create (State.create ~seed:plan_seed ()) ~graph ~m:(Array.length logs) ~num_actions
      ~group_seed:(plan_seed lxor 0x5bd1e995) config
  in
  let pairs = Delta.pairs delta in
  {
    delta;
    sources =
      Array.mapi
        (fun k l -> Source.create (State.create ~seed:(plan_seed + 101 + k) ()) l ~rate ~burstiness ~jitter ())
        logs;
    streams =
      Array.map
        (fun _ ->
          Stream.create ~window ~num_users:(Spe_graph.Digraph.n graph) ~num_actions ~h:config.Protocol4.h
            ~pairs ())
        logs;
  }

type epoch = { input : Delta.epoch_input; arrivals : int; dirty_pairs : int; snapshot_s : float }

(* Ingest every arrival up to the epoch's horizon and snapshot the
   windowed counters. *)
let ingest t ~epoch =
  let horizon = (epoch + 1) * epoch_ticks in
  let arrivals = ref 0 in
  Array.iteri
    (fun k src ->
      let acc = t.streams.(k) in
      List.iter
        (fun (r : Log.record) ->
          incr arrivals;
          Stream.advance acc ~now:(max (Stream.now acc) r.Log.time);
          Stream.add acc r)
        (Source.take_until src ~arrival:horizon))
    t.sources;
  let union f = List.sort_uniq compare (List.concat (Array.to_list (Array.map f t.streams))) in
  let dirty_users = union Stream.dirty_users and dirty_pairs = union Stream.dirty_pairs in
  let inputs, snapshot_s =
    Measure.time (fun () ->
        Array.map
          (fun acc ->
            let c = Stream.snapshot acc in
            { Protocol4.a = c.Counters.a; c = c.Counters.c })
          t.streams)
  in
  Array.iter Stream.clear_dirty t.streams;
  {
    input = { Delta.epoch; dirty_users; dirty_pairs; inputs };
    arrivals = !arrivals;
    dirty_pairs = List.length dirty_pairs;
    snapshot_s;
  }

(* One pass on the simulated engine in [mode]: per epoch, the release
   and its exact counts. *)
let replay_sim ~graph ~logs mode =
  let t = create ~graph ~logs in
  Array.init pass (fun e -> sim_run (Delta.epoch_plan t.delta ~mode (ingest t ~epoch:e).input))

(* Subcritical cascades (p = 0.15 on mean out-degree 4) over many
   actions: activity spreads evenly over the users, so the work per
   epoch differs little from seed to seed. *)
let generate ~seed = Inputs.workload ~p:0.15 ~seed ~n:200 ~edges:800 ~actions:1500 ~m:3 ()

let run ~probe ~seed ~seconds ~trace =
  let graph, logs = generate ~seed in
  let groups = Spe_graph.Digraph.n graph in
  let e = ref 0 and current = ref None in
  (* The next epoch of the current instance, or of a fresh one. *)
  let release ~traced =
    let t0 = Measure.now () in
    let inst, create_s =
      match !current with
      | Some inst -> (inst, 0.)
      | None ->
        let inst, dt = Measure.time (fun () -> create ~graph ~logs) in
        current := Some inst;
        (inst, dt)
    in
    let epoch = !e in
    incr e;
    if !e = pass then begin
      e := 0;
      current := None
    end;
    match
      let ep, ingest_s = Measure.time (fun () -> ingest inst ~epoch) in
      let plan, plan_s =
        Measure.time (fun () -> Delta.epoch_plan inst.delta ~mode:Delta.Delta ep.input)
      in
      let stages = run_stages ~traced plan.Plan.stages in
      let rel, result_s = Measure.time plan.Plan.result in
      (ep, ingest_s, plan_s, stages, rel, result_s)
    with
    | exception ex ->
      complain "stream-epochs epoch %d: %s" epoch (Printexc.to_string ex);
      (epoch, None, failed ~traced)
    | ep, ingest_s, plan_s, stages, rel, result_s ->
      let latency_s = Measure.now () -. t0 in
      ( epoch,
        Some (stages, rel),
        {
          (release_of_stages ~traced ~latency_s ~plan_s ~result_s stages) with
          updates = ep.arrivals;
          ingest_s = ingest_s +. create_s;
          snapshot_s = ep.snapshot_s;
          recomputed = rel.Delta.recomputed;
          groups;
          dirty_pairs = ep.dirty_pairs;
        } )
  in
  (* Set-up: input generation, a fresh instance and its first epoch, a
     probe slice before each repetition. *)
  let setups =
    List.init setup_reps (fun _ ->
        snd
          (timed_setup ~probe (fun () ->
               ignore (generate ~seed);
               current := None;
               e := 0;
               match release ~traced:false with
               | _, Some _, _ -> ()
               | _, None, _ -> failwith "stream-epochs: warm-up epoch failed")))
  in
  current := None;
  e := 0;
  let expected =
    Measure.in_child (fun () ->
        Array.map2
          (fun ((full : Delta.release), _) ((delta : Delta.release), counts) ->
            if full.Delta.digest <> delta.Delta.digest then
              failwith "stream-epochs: simulated Delta release differs from the Full replay";
            (full.Delta.digest, counts))
          (replay_sim ~graph ~logs Delta.Full)
          (replay_sim ~graph ~logs Delta.Delta))
  in
  let next ~traced =
    let epoch, outcome, r = release ~traced in
    let t1 = Measure.now () in
    let digest, counts = expected.(epoch) in
    let ok =
      match outcome with
      | None -> false
      | Some (stages, rel) ->
        let same = rel.Delta.digest = digest in
        if not same then complain "stream-epochs epoch %d: digest differs from the Full replay" epoch;
        counts_agree ~what:"stream-epochs" counts stages && same
    in
    ((if ok then r else { r with ok = false; latency_s = infinity }), Measure.now () -. t1)
  in
  let gc = if trace then Some (gc_pass ~count:pass next) else None in
  let loop = closed_loop ~probe ~seconds ~trace ~cycle:(fun () -> !e = 0) next in
  {
    setups;
    loop;
    peak_mb = Measure.peak_rss_kb (Unix.getpid ()) /. 1024.;
    modulus = config.Protocol4.modulus;
    largest_payload = Array.fold_left (fun acc (_, c) -> max acc c.largest) 0 expected;
    ciphertexts_per_release = 0.;
    gc;
    layers = [];
  }
