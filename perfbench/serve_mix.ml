(* serve-mix: three [spe serve] daemons (H, P1, P2) spawned as separate
   processes over a Unix-socket roster, and one client connection
   keeping [depth] jobs outstanding: small links and rank jobs in a
   fixed 3:1 rotation.  A job is one release, timed at the client from
   submit to its verified reply.

   The daemons are measured from outside: latency at the client, CPU
   and memory from /proc.  Every [block] jobs the loop drains, so a
   probe slice never overlaps a job.  The exact counts of a job — NR,
   MS / 8 and the bytes its sessions move on the socket engine plus
   the client's submit and reply frames — are taken from the job's
   plan, built and run locally before timing: the daemons' own reports
   are read before the providers fold in their last job, and their
   written-byte counters include the reactors' self-pipe wake-ups, so
   neither repeats.

   Untraced daemons run without a metrics address.  A --trace 1 run
   alternates blocks between that deployment and a second one with a
   metrics address, and reads the serve layer from its scrape
   documents. *)

open Engine
module State = Spe_rng.State
module Proto = Spe_serve.Serve_proto
module Client = Spe_serve.Client
module Daemon = Spe_serve.Daemon
module Job = Spe_serve.Job
module Addr = Spe_serve.Addr
module Json = Spe_obs.Obs_io.Json

(* Jobs outstanding at the client. *)
let depth = 2

(* Jobs between drains; a whole number of rotations. *)
let block = 8

(* Daemons' peak memory is read after this many timed jobs: their
   resident set grows with every job served, so a fixed job count
   keeps the figure independent of how fast the run went. *)
let memory_jobs = 128

(* Deployments per run: the last is measured, all are timed for
   set-up, each after a probe slice. *)
let deployments = 9

(* A reply later than this is a stalled job: a failed release. *)
let reply_timeout = 30.

let rotation =
  Array.init 8 (fun j ->
      let base =
        { Proto.default_spec with Proto.seed = Inputs.plan_seed j; modulus_bits = 40; c_factor = 2.; shards = 2 }
      in
      if j mod 4 = 3 then { base with Proto.pipeline = Proto.Rank; iterations = 10 }
      else { base with Proto.pipeline = Proto.Links; h = 3 })

let generate ~seed = Inputs.workload ~seed ~n:200 ~edges:800 ~actions:20 ~m:2 ()

(* What one job must produce, and its exact counts. *)
type expected = {
  spec : Proto.spec;
  want : Proto.reply;
  counts : counts;
  wire : int;
  plan_s : float;  (** Local plan build, seconds. *)
  stage_s : float;  (** Local socket-engine stages, seconds. *)
}

let same_reply want got =
  match (want, got) with
  | Proto.Strengths a, Proto.Strengths b -> Measure.same_strengths a b
  | Proto.Rank_summary { ranks_fx = a; fbits = fa }, Proto.Rank_summary { ranks_fx = b; fbits = fb } ->
    a = b && fa = fb
  | _ -> false

(* Bytes of one spe-serve frame on the wire: length prefix and body. *)
let framed msg = 4 + Bytes.length (Proto.encode msg)

let expect workload ~job spec =
  let built () = Job.build spec workload in
  let planned = built () in
  let (), counts = sim_run (Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore) in
  let want = Job.reply_of planned in
  (match spec.Proto.pipeline with
  | Proto.Rank ->
    let activity = Array.make (Spe_graph.Digraph.n workload.Job.graph) 0 in
    Array.iter
      (fun l -> Array.iteri (fun i a -> activity.(i) <- activity.(i) + a) (Spe_actionlog.Log.user_activity l))
      workload.Job.logs;
    let oracle =
      {
        Spe_rank.Oracle.mode = Spe_rank.Oracle.Pagerank;
        damping = spec.Proto.damping;
        iterations = spec.Proto.iterations;
        fbits = spec.Proto.fbits;
      }
    in
    let fixed = Spe_rank.Oracle.fixed oracle workload.Job.graph ~activity in
    if not (same_reply (Proto.Rank_summary { ranks_fx = fixed; fbits = spec.Proto.fbits }) want) then
      failwith "serve-mix: the simulated rank job differs from Oracle.fixed"
  | _ -> ());
  (* The same plan on the socket engine: its transport bytes, and the
     local plan-build and stage times (medians of three). *)
  let local =
    List.init 3 (fun _ ->
        let planned, plan_s = Measure.time built in
        let s = run_stages ~traced:false (Job.stages planned) in
        if not (same_reply want (Job.reply_of planned)) then
          failwith "serve-mix: the socket engine's job differs from the simulated one";
        (plan_s, s))
  in
  let _, s = List.hd local in
  if s.s_rounds <> counts.rounds || s.s_payload <> counts.payload then
    failwith "serve-mix: socket and simulated exact counts differ";
  let client_frames =
    framed (Proto.Job_submit { job; spec }) + framed (Proto.Job_result { job; reply = want })
  in
  {
    spec;
    want;
    counts;
    wire = s.s_wire + client_frames;
    plan_s = Measure.median (List.map fst local);
    stage_s = Measure.median (List.map (fun (_, s) -> s.s_stage) local);
  }

(* --- deployments ---------------------------------------------------------- *)

type deployment = { roster : Addr.t array; scrape : Addr.t array option; pids : int array; client : Client.t }

let run_dir = Printf.sprintf ".perfbench-run-%d" (Unix.getpid ())
let sock name = Spe_net.Transport.Socket.Unix_domain (Filename.concat run_dir (name ^ ".sock"))

let teardown d =
  Client.close d.client;
  let stuck = try Client.shutdown_roster ~timeout:15. d.roster with _ -> List.init (Array.length d.pids) Fun.id in
  List.iter (fun p -> try Unix.kill d.pids.(p) Sys.sigkill with Unix.Unix_error _ -> ()) stuck;
  Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) d.pids

(* Connections daemon [path]'s listener has accepted, from the kernel's
   table of Unix sockets (state 03: connected). *)
let accepted path =
  List.length
    (List.filter
       (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [ _; _; _; _; _; "03"; _; p ] -> p = path
         | _ -> false)
       (String.split_on_char '\n' (Measure.read_file "/proc/net/unix")))

(* Wait until every daemon has accepted the dial of every higher id.  H
   admits a job once its own links are up, but a provider that gets the
   job before its link to the other provider is attached fails it
   without telling H, which then waits out its round timeout; so the
   first job must not go out before the whole mesh is up.  The kernel
   shows the accept; [mesh_grace] covers the Hello exchange after it. *)
let mesh_grace = 0.01

let await_full_mesh (roster : Addr.t array) =
  let deadline = Measure.now () +. 30. in
  let path = function
    | Spe_net.Transport.Socket.Unix_domain p -> p
    | Spe_net.Transport.Socket.Tcp _ -> invalid_arg "unix roster expected"
  in
  let n = Array.length roster in
  let complete () = List.for_all (fun d -> accepted (path roster.(d)) >= n - 1 - d) (List.init n Fun.id) in
  while not (complete ()) do
    if Measure.now () > deadline then failwith "serve-mix: daemon mesh not up within 30 s";
    Unix.sleepf 0.001
  done;
  Unix.sleepf mesh_grace

let await client = Client.next_reply client ~deadline:(Measure.now () +. reply_timeout)

(* Spawn the daemons, wait for their mesh, connect, and run one warm-up
   job. *)
let deploy ~tag ~traced workload (warmup : expected) =
  let roster = Array.init 3 (fun p -> sock (Printf.sprintf "%s-%s" tag (Addr.party_name p))) in
  let scrape =
    if traced then Some (Array.init 3 (fun p -> sock (Printf.sprintf "%s-m%s" tag (Addr.party_name p))))
    else None
  in
  let pids =
    Array.init 3 (fun party ->
        Daemon.spawn
          { (Daemon.default_config ~party ~roster) with Daemon.metrics_addr = Option.map (fun a -> a.(party)) scrape }
          workload)
  in
  let kill () =
    Array.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      pids
  in
  let client =
    try
      await_full_mesh roster;
      Client.connect roster.(0)
    with e ->
      kill ();
      raise e
  in
  let d = { roster; scrape; pids; client } in
  match
    ignore (Client.submit client warmup.spec);
    await client
  with
  | Some (_, Client.Result reply) when same_reply warmup.want reply -> d
  | _ ->
    teardown d;
    failwith "serve-mix: warm-up job failed"
  | exception e ->
    teardown d;
    raise e

(* Every daemon's scrape gauges and cumulative compute seconds. *)
let scrape_all addrs =
  Array.to_list
    (Array.map
       (fun a ->
         let doc = Json.of_string (Client.scrape a) in
         let gauges =
           match Json.member "gauges" doc with
           | Json.Obj kv -> List.map (fun (k, v) -> (k, match v with Json.Int i -> float_of_int i | _ -> 0.)) kv
           | _ -> []
         in
         let compute =
           match Json.member "report" doc with
           | Json.Null -> 0.
           | r ->
             let rep = Spe_obs.Obs_io.report_of_json r in
             Measure.sum_f (fun c -> c.Metrics.total_s) rep.Metrics.compute
         in
         ("compute_s", compute) :: gauges)
       addrs)

let gauge name s = Measure.sum_f (fun g -> Option.value (List.assoc_opt name g) ~default:0.) s

(* --- the timed loop ------------------------------------------------------- *)

type job_rec = { rel : release; submit_s : float }

(* Run [block] jobs on [d], [depth] outstanding, and drain.  [issued]
   counts jobs across blocks, so the rotation continues; [at] is the
   probe's slice count when the block starts. *)
let run_block d ~traced ~issued ~at (expected : expected array) =
  let inflight = Hashtbl.create 4 and out = ref [] and stalled = ref false in
  let submit () =
    let k = !issued mod Array.length expected in
    let ts = Measure.now () in
    let id = Client.submit d.client expected.(k).spec in
    Hashtbl.replace inflight id (k, ts, Measure.now () -. ts);
    incr issued
  in
  let sent = ref 0 in
  let top_up () =
    while Hashtbl.length inflight < depth && !sent < block do
      submit ();
      incr sent
    done
  in
  top_up ();
  while Hashtbl.length inflight > 0 && not !stalled do
    match await d.client with
    | None ->
      complain "serve-mix: no reply within %.0f s; %d jobs stalled" reply_timeout (Hashtbl.length inflight);
      stalled := true
    | Some (id, outcome) ->
      let k, ts, submit_s = Hashtbl.find inflight id in
      Hashtbl.remove inflight id;
      let latency_s = Measure.now () -. ts in
      let e = expected.(k) in
      let ok =
        match outcome with
        | Client.Result (Proto.Failed { kind; detail }) ->
          complain "serve-mix job %d failed (%s): %s" id (Proto.failure_kind_name kind) detail;
          false
        | Client.Busy _ ->
          complain "serve-mix job %d refused busy" id;
          false
        | Client.Result reply ->
          same_reply e.want reply
          || (complain "serve-mix %s job %d differs from its oracle" (Proto.pipeline_name e.spec.Proto.pipeline) id;
              false)
      in
      let rel =
        {
          blank with
          traced;
          ok;
          latency_s = (if ok then latency_s else infinity);
          rounds = e.counts.rounds;
          payload = e.counts.payload;
          wire = e.wire;
          plan_s = e.plan_s;
          stage_s = e.stage_s;
          slice = at;
        }
      in
      out := { rel; submit_s } :: !out;
      top_up ()
  done;
  (* A stalled job is a failed release; the run stops there. *)
  Hashtbl.iter
    (fun _ (_, _, submit_s) -> out := { rel = { (failed ~traced) with slice = at }; submit_s } :: !out)
    inflight;
  (List.rev !out, !stalled)

let daemons_sum f ds = Measure.sum_f (fun d -> Measure.sum_f f (Array.to_list d.pids)) ds

let run ~probe ~seed ~seconds ~trace =
  (try Unix.mkdir run_dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> try Sys.remove (Filename.concat run_dir f) with Sys_error _ -> ()) (Sys.readdir run_dir);
      try Unix.rmdir run_dir with Unix.Unix_error _ -> ())
    (fun () ->
      let graph, logs = generate ~seed in
      let workload = { Job.graph; logs } in
      let expected =
        Measure.in_child (fun () -> Array.mapi (fun job spec -> expect workload ~job spec) rotation)
      in
      (* Set-up: input generation, a deployment and its warm-up job;
         the last deployment is the measured one.  The fixed grace is
         the benchmark's own wait, not the system's work, and would not
         scale with the machine's speed: it is left out. *)
      let deploy_timed ~tag ~traced =
        let d, (s, at) =
          timed_setup ~probe (fun () ->
              ignore (generate ~seed);
              deploy ~tag ~traced workload expected.(0))
        in
        (d, (s -. mesh_grace, at))
      in
      let setups = ref [] and live = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter teardown !live)
        (fun () ->
          for i = 1 to deployments do
            let d, s = deploy_timed ~tag:(Printf.sprintf "u%d" i) ~traced:false in
            setups := s :: !setups;
            if i < deployments then teardown d else live := [ d ]
          done;
          let plain = List.hd !live in
          let traced_d =
            if trace then begin
              let d, _ = deploy_timed ~tag:"t" ~traced:true in
              live := d :: !live;
              Some d
            end
            else None
          in
          let cpu ds = Measure.cpu_self_s () +. daemons_sum Measure.cpu_of_pid_s ds in
          let all = !live in
          let before = Option.map (fun d -> scrape_all (Option.get d.scrape)) traced_d in
          ignore (Probe.slice probe);
          let t0 = Measure.now () and c0 = cpu all in
          let excluded = ref 0. and issued = ref 0 in
          let jobs = ref [] and n = ref 0 and blocks = ref 0 and stalled = ref false in
          let mem = ref None in
          let work () = Measure.now () -. t0 -. !excluded in
          while
            (not !stalled)
            && (work () < seconds || !n < min_releases || (trace && !blocks mod 2 = 1))
          do
            let traced = trace && !blocks mod 2 = 1 in
            let d = if traced then Option.get traced_d else plain in
            let out, st = run_block d ~traced ~issued ~at:probe.Probe.count expected in
            stalled := st;
            jobs := List.rev_append out !jobs;
            n := !n + List.length out;
            incr blocks;
            let untraced_jobs = List.length (List.filter (fun j -> not j.rel.traced) !jobs) in
            if !mem = None && untraced_jobs >= memory_jobs then
              mem :=
                Some
                  ( daemons_sum Measure.peak_rss_kb [ plain ] /. 1024.,
                    daemons_sum Measure.rss_kb [ plain ],
                    untraced_jobs );
            excluded := !excluded +. Probe.slice probe
          done;
          let wall_s = work () and cpu_s = cpu all -. c0 in
          ignore (Probe.slice probe);
          let jobs = List.rev !jobs in
          let untraced_jobs = List.filter (fun j -> not j.rel.traced) jobs in
          let peak_mb, rss_at, jobs_at =
            match !mem with Some m -> m | None -> (daemons_sum Measure.peak_rss_kb [ plain ] /. 1024., 0., 0)
          in
          let layers =
            match (traced_d, before) with
            | Some d, Some before ->
              let after = scrape_all (Option.get d.scrape) in
              let traced_jobs = List.filter (fun j -> j.rel.traced) jobs in
              let per_job x = x /. float_of_int (max 1 (List.length traced_jobs)) in
              let delta name = gauge name after -. gauge name before in
              let local j = j.rel.plan_s +. j.rel.stage_s in
              let mean = Measure.mean in
              let lat = mean (fun j -> j.rel.latency_s) untraced_jobs in
              [
                ("serve.submit_us", 1e6 *. Measure.median (List.map (fun j -> j.submit_s) jobs));
                ("serve.overhead_ms_per_job", 1000. *. (lat -. mean (fun j -> j.rel.stage_s) untraced_jobs));
                ("serve.timer_fires_per_job", per_job (delta "reactor_timer_fires"));
                ("serve.reactor_iterations_per_job", per_job (delta "reactor_iterations"));
                ("serve.busy_rejected", gauge "busy_rejected" after);
                ( "serve.rss_kb_per_job",
                  (daemons_sum Measure.rss_kb [ plain ] -. rss_at)
                  /. float_of_int (max 1 (List.length untraced_jobs - jobs_at)) );
                ("core.plan_build_ms", 1000. *. mean (fun j -> j.rel.plan_s) jobs);
                ("net.stage_ms", 1000. *. mean (fun j -> j.rel.stage_s) jobs);
                ("net.compute_ms", 1000. *. per_job (delta "compute_s"));
                (* The daemons' rounds are not timed one by one. *)
                ("net.overhead_us_per_round", 0.);
                ( "obs.trace_overhead_pct",
                  100.
                  *. (Measure.median (List.map (fun j -> j.rel.latency_s) traced_jobs)
                      /. Measure.median (List.map (fun j -> j.rel.latency_s) untraced_jobs)
                     -. 1.) );
                ("obs.unattributed_pct", 100. *. (lat -. mean local untraced_jobs) /. lat);
              ]
            | _ -> []
          in
          {
            setups = List.rev !setups;
            loop = { releases = List.map (fun j -> j.rel) jobs; wall_s; cpu_s };
            peak_mb;
            modulus = 1 lsl 40;
            largest_payload = Array.fold_left (fun acc e -> max acc e.counts.largest) 0 expected;
            ciphertexts_per_release = 0.;
            gc = None;
            layers;
          }))
