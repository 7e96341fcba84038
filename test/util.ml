(* Shared builders for the cross-suite tests.  The random workload
   (Erdős–Rényi graph, planted cascade log, exclusive provider
   partition) and the live-deployment roster were duplicated across
   test_net.ml, test_obs.ml, test_serve.ml and test_delta.ml; they live
   here once, with no behavior change — the bodies are the originals,
   draw for draw. *)

module State = Spe_rng.State
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Session = Spe_mpc.Session
module Wire = Spe_mpc.Wire
module Plan = Spe_core.Plan
module Endpoint = Spe_net.Endpoint
module Transport = Spe_net.Transport
module Schedule = Spe_chaos.Schedule
module Harness = Spe_chaos.Harness
module Job = Spe_serve.Job
module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client

(* The standard random pipeline workload: ER graph, cascade log with
   planted p = 0.3 influence, exclusive partition across m providers —
   all drawn from one seeded generator. *)
let workload ~seed ~n ~edges ~actions ~m =
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  (g, Partition.exclusive s log ~m)

(* The unsharded distributed pipelines: the Shard plan at k = 1,
   lowered to one session, so any single-session engine can run it. *)
let links_session st ~graph ~logs config =
  Plan.to_session (Spe_core.Shard.links_exclusive st ~graph ~logs ~shards:1 config)

let scores_session st ~graph ~logs ~tau ~modulus config =
  Plan.to_session
    (Spe_core.Shard.user_scores_exclusive st ~graph ~logs ~tau ~modulus ~shards:1 config)

(* Drive a plan on one of the three engines: lowered to a single
   session for sim, stage-by-stage through a transport worker pool
   otherwise. *)
let run_plan ?(workers = 2) engine (plan : _ Plan.t) =
  match engine with
  | `Sim -> Session.run (Plan.to_session plan) ~wire:(Wire.create ())
  | (`Memory | `Socket) as e ->
    List.iter
      (fun (stage : Plan.stage) ->
        ignore
          (match e with
          | `Memory -> Endpoint.run_sessions_memory ~workers stage.Plan.sessions
          | `Socket -> Endpoint.run_sessions_socket ~workers stage.Plan.sessions))
      plan.Plan.stages;
    plan.Plan.result ()

(* --- live deployments ------------------------------------------------------- *)

(* A small links workload: 3 providers like the chaos campaigns, so the
   mesh is a real 4-daemon clique. *)
let links_workload =
  { Schedule.wseed = 97; users = 18; edges = 50; actions = 8; providers = 3 }

(* Start one in-process daemon per party over a temp unix-domain
   roster, run [f client daemons roster], then shut everything down. *)
let with_deployment ?(workload = links_workload) ?(max_sessions = 4) ?(max_queue = 64)
    ?metrics_addr f =
  let graph, logs = Harness.workload_inputs workload in
  let m = Array.length logs in
  let roster = Transport.Socket.temp_unix_addresses ~m:(m + 1) in
  let daemons =
    Array.init (m + 1) (fun party ->
        Daemon.start
          {
            (Daemon.default_config ~party ~roster) with
            Daemon.max_sessions;
            max_queue;
            metrics_addr = (if party = 0 then metrics_addr else None);
            round_timeout = 60.;
            linger = 61.;
            dial_timeout = 15.;
          }
          { Job.graph; logs })
  in
  let client = Client.connect ~retry_for:10. roster.(0) in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      ignore (Client.shutdown_roster ~timeout:15. roster);
      Array.iter Daemon.wait daemons)
    (fun () -> f client daemons roster ~graph ~logs)

let gauge daemons party name =
  match List.assoc_opt name (Daemon.gauges daemons.(party)) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "gauge %s missing" name)
