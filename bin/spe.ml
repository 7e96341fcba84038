(* The `spe` command-line tool: generate synthetic workloads, run the
   secure estimation protocols over files on disk, audit the privacy
   machinery, and print the communication-cost models.

   Run `spe --help` or `spe <command> --help` for usage. *)

module State = Spe_rng.State
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Graph_io = Spe_graph.Graph_io
module Log = Spe_actionlog.Log
module Log_io = Spe_actionlog.Log_io
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Link_strength = Spe_influence.Link_strength
module Maximize = Spe_influence.Maximize
module Wire = Spe_mpc.Wire
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Posterior = Spe_privacy.Posterior
module Gain = Spe_privacy.Gain
module Leakage = Spe_privacy.Leakage
module Dp_release = Spe_privacy.Dp_release
module Rank_oracle = Spe_rank.Oracle
module Protocol_rank = Spe_rank.Protocol_rank
module Model = Spe_cost.Model
module Serve_addr = Spe_serve.Addr
module Serve_client = Spe_serve.Client
module Serve_proto = Spe_serve.Serve_proto
module Serve_daemon = Spe_serve.Daemon

open Cmdliner

(* --- shared argument definitions ------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")

let graph_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE" ~doc:"Social graph file (see spe generate).")

let logs_arg =
  Arg.(
    non_empty
    & opt_all file []
    & info [ "log" ] ~docv:"FILE" ~doc:"Provider action-log file; repeat once per provider.")

let h_arg =
  Arg.(value & opt int 3 & info [ "window"; "h" ] ~docv:"H" ~doc:"Memory-window width h.")

let c_arg =
  Arg.(
    value & opt float 2.
    & info [ "c-factor" ] ~docv:"C" ~doc:"Edge-set obfuscation blow-up (c >= 1).")

let modulus_bits_arg =
  Arg.(
    value & opt int 40
    & info [ "modulus-bits" ] ~docv:"BITS" ~doc:"Share modulus S = 2^BITS.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"How many results to print.")

(* Optional variants of --graph/--log for the commands that can instead
   talk to live daemons (--connect): the daemons own the workload, so
   the files are only required for in-process runs. *)
let graph_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE"
        ~doc:"Social graph file (see spe generate).  Required unless --connect.")

let logs_opt_arg =
  Arg.(
    value & opt_all file []
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Provider action-log file; repeat once per provider.  Required unless \
           --connect.")

(* --- input files and usage errors -------------------------------------- *)

(* Sequence a usage check: [Error msg] ends the command with a usage
   error (exit 124). *)
let ( let* ) r f = match r with Error msg -> `Error (true, msg) | Ok v -> f v

let at_least flag min v =
  if v < min then Error (Printf.sprintf "%s must be at least %d" flag min) else Ok ()

(* Every graph and action-log file the CLI reads goes through [load],
   so a malformed or unreadable file is a usage error naming its flag
   and path rather than an uncaught exception. *)
let load ~flag read path =
  match read path with
  | v -> Ok v
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    Error (Printf.sprintf "%s %s: %s" flag path msg)

let load_graph path = load ~flag:"--graph" Graph_io.load path

let load_graph_opt = function
  | None -> Ok None
  | Some path -> Result.map Option.some (load_graph path)

let load_logs paths =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | path :: rest -> (
      match load ~flag:"--log" Log_io.load path with
      | Ok log -> go (log :: acc) rest
      | Error _ as e -> e)
  in
  go [] paths

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Submit the computation as a job to a live host daemon (spe serve) at ADDR \
           (HOST:PORT or unix:PATH) instead of running the parties in-process.  The \
           daemons own the workload, so --graph/--log are not used; --seed, --shards \
           and the protocol parameters travel in the job spec.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "With --connect: submit N identical jobs (pipelined over one connection) and \
           require every reply to agree — an end-to-end determinism check against a \
           live deployment.")

(* Submit a spec to a live deployment and hand the first successful
   reply to [print].  Every failure path is a clean message and a
   nonzero exit: address parse errors are usage errors, connection and
   job failures are runtime errors — never a raw [Unix_error]. *)
let run_connect ~addr_spec ~jobs spec ~print =
  if jobs < 1 then `Error (true, "--jobs must be at least 1")
  else
    match Serve_addr.parse addr_spec with
    | Error msg -> `Error (true, "--connect " ^ msg)
    | Ok addr -> (
      match Serve_client.connect ~retry_for:5. addr with
      | exception Serve_client.Connection_lost msg -> `Error (false, msg)
      | client -> (
        let outcomes =
          try
            Ok
              (Serve_client.run_jobs client
                 (List.init jobs (fun _ -> spec))
                 ~deadline:(Unix.gettimeofday () +. 600.))
          with Serve_client.Connection_lost msg -> Error msg
        in
        Serve_client.close client;
        match outcomes with
        | Error msg -> `Error (false, msg)
        | Ok outcomes -> (
          let ok, busy, failed =
            List.fold_left
              (fun (ok, busy, failed) outcome ->
                match outcome with
                | Serve_client.Busy { queued; max_queue } ->
                  ( ok,
                    Printf.sprintf "busy: %d jobs queued of %d" queued max_queue :: busy,
                    failed )
                | Serve_client.Result (Serve_proto.Failed { kind; detail }) ->
                  ( ok,
                    busy,
                    Printf.sprintf "%s: %s" (Serve_proto.failure_kind_name kind) detail
                    :: failed )
                | Serve_client.Result reply -> (reply :: ok, busy, failed))
              ([], [], []) outcomes
          in
          match (ok, busy, failed) with
          | first :: rest, [], [] ->
            if List.for_all (fun r -> r = first) rest then begin
              print first;
              if jobs > 1 then
                Printf.printf "%d jobs over one daemon connection, all replies identical\n"
                  jobs;
              `Ok ()
            end
            else `Error (false, "daemon replies disagree across identical jobs")
          | _ ->
            let detail = List.sort_uniq compare (busy @ failed) in
            `Error
              ( false,
                Printf.sprintf "%d of %d jobs did not complete: %s" (List.length busy + List.length failed)
                  jobs (String.concat "; " detail) ))))

(* --- differential-privacy release flags (links, scores, rank) --------- *)

(* A Laplace release of the *published* values (Spe_privacy.Dp_release),
   orthogonal to the MPC that computed them.  It is applied client-side
   at the very end — also under --connect, where the daemons reply with
   the exact values and only this process draws the noise.  The sampler
   seed derives from --seed, so releases are replayable and the MPC+DP
   and plaintext+DP regimes coincide whenever the exact values do. *)
let dp_epsilon_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dp-epsilon" ] ~docv:"EPS"
        ~doc:
          "Also emit a differentially private release of the published values (Laplace \
           mechanism at scale --dp-sensitivity / EPS) and report the exact-vs-DP \
           utility gap as a mean absolute error.  'inf' degenerates to the exact \
           release, byte for byte.")

let dp_sensitivity_arg =
  Arg.(
    value & opt float 1.
    & info [ "dp-sensitivity" ] ~docv:"S"
        ~doc:
          "L1 sensitivity of each released entry (default 1, the conservative bound \
           for strengths, scores and normalised ranks).")

let dp_public_degree_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dp-public-degree" ] ~docv:"D"
        ~doc:
          "Hub exemption: entries whose node(s) all have total degree at least D are \
           released exactly; only the rest are noised.  Needs --graph.")

(* Salted off --seed so the protocol draws and the release draws never
   share a stream, yet one --seed replays the whole run. *)
let dp_seed ~seed = seed lxor 0x2545f491

let dp_check ~dp_epsilon ~dp_sensitivity ~dp_public_degree =
  match dp_epsilon with
  | None when dp_public_degree <> None || dp_sensitivity <> 1. ->
    Some "--dp-sensitivity/--dp-public-degree need --dp-epsilon"
  | Some e when Float.is_nan e || e <= 0. ->
    Some "--dp-epsilon must be positive (or 'inf' for the exact release)"
  | Some _ when Float.is_nan dp_sensitivity || dp_sensitivity <= 0. ->
    Some "--dp-sensitivity must be positive"
  | Some _ when (match dp_public_degree with Some d -> d < 0 | None -> false) ->
    Some "--dp-public-degree must be >= 0"
  | _ -> None

let dp_params ~seed ~dp_sensitivity epsilon =
  { Dp_release.epsilon; sensitivity = dp_sensitivity; seed = dp_seed ~seed }

(* Arc predicate (strength lists) and node predicate (score / rank
   vectors): hubs are public once every endpoint clears the degree
   threshold.  [None] when no graph is at hand (the caller has already
   rejected --dp-public-degree in that case). *)
let dp_arc_public ~dp_public_degree graph =
  match (dp_public_degree, graph) with
  | Some d, Some g -> Some (Dp_release.hubs ~degree_threshold:d g)
  | _ -> None

let dp_node_public ~dp_public_degree graph =
  match (dp_public_degree, graph) with
  | Some d, Some g -> Some (fun i -> Dp_release.hubs ~degree_threshold:d g (i, i))
  | _ -> None

let dp_header ~what (params : Dp_release.params) count =
  Printf.printf "dp-release: %s, epsilon %g, sensitivity %g, seed %d, %d value(s)%s\n"
    what params.Dp_release.epsilon params.Dp_release.sensitivity params.Dp_release.seed
    count
    (if Dp_release.exact params then " - exact (epsilon = inf)" else "")

let emit_dp_strengths ~params ~public strengths =
  let released = Dp_release.strengths ?public params strengths in
  dp_header ~what:"link strengths" params (List.length strengths);
  Printf.printf "dp-utility: MAE(exact, dp) = %.6f\n"
    (Dp_release.mean_abs_error_strengths strengths released)

(* [plaintext], when given, is the non-MPC reference run through the
   same seeded sampler — the third regime of the comparison; its MAE
   against the MPC release is 0 exactly when the exact values agree. *)
let emit_dp_vector ~params ~public ?plaintext ~what values =
  let released = Dp_release.values ?public params values in
  dp_header ~what params (Array.length values);
  Printf.printf "dp-utility: MAE(exact, dp) = %.6f\n"
    (Dp_release.mean_abs_error values released);
  match plaintext with
  | None -> ()
  | Some reference ->
    let ref_released = Dp_release.values ?public params reference in
    Printf.printf "dp-utility: MAE(plaintext+dp, mpc+dp) = %.6f\n"
      (Dp_release.mean_abs_error ref_released released)

let wire_summary (w : Wire.stats) =
  Printf.printf "communication: %d rounds, %d messages, %.1f KiB\n" w.Wire.rounds
    w.Wire.messages
    (float_of_int w.Wire.bits /. 8192.)

(* Engine selection for the full pipelines: the central reference
   implementation, or the composed Session on any of the three
   engines.  All four produce identical results from the same seed. *)
let pipeline_transport_arg =
  Arg.(
    value
    & opt
        (enum [ ("central", `Central); ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ])
        `Central
    & info [ "transport" ] ~docv:"ENGINE"
        ~doc:
          "How to execute the protocol pipeline: the central reference implementation \
           (central), the composed party programs on the in-process engine (sim), or \
           each party as a state machine on one event loop over in-memory queues \
           (memory) or Unix-domain sockets (socket).  The results and the NR/NM \
           statistics are engine-independent; the real transports also report measured \
           framed bytes.")

(* Run a composed pipeline session on the chosen non-central engine;
   returns the result plus the wire rebuilt from the message log, and
   the Net_wire accounting (transport bytes + totals) for the real
   backends. *)
let run_pipeline_session ~trace transport session =
  let module Session = Spe_mpc.Session in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  match transport with
  | `Sim ->
    let w = Wire.create () in
    let r = Session.run ~trace session ~wire:w in
    (r, w, None)
  | `Memory | `Socket ->
    (* The default 2 s round timeout is tuned for loss detection; a
       full pipeline has long compute rounds (e.g. decrypting every
       Protocol 6 bundle under a 1024-bit key), during which a busy
       party looks exactly like a dead one.  Local transports are
       reliable, so wait out the compute instead of Nacking it. *)
    let config =
      { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }
    in
    let r, (res : Endpoint.result) =
      match transport with
      | `Memory -> Endpoint.run_session_memory ~config ~trace session
      | _ -> Endpoint.run_session_socket ~config ~trace session
    in
    let logs =
      Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes
    in
    (r, Net_wire.merge logs, Some (res.Endpoint.transport_bytes, Net_wire.totals logs))

(* Sharded execution: cut the pipeline into a Plan of per-shard
   sessions (results are bit-identical for every K — DESIGN.md,
   "Sharded execution").  On sim the plan is lowered back to one
   session; on memory/socket each stage's sessions run concurrently on
   the Endpoint shard pool. *)
let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Cut the pipeline into K concurrent per-shard sessions (DESIGN.md, \"Sharded \
           execution\").  Results are bit-identical for every K; on the memory and \
           socket transports the shards run concurrently on one event loop.  Requires a \
           non-central --transport.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"J"
        ~doc:
          "Shard sessions in flight per sharded stage on the memory/socket transports; \
           all of them run on one event-loop thread.")

(* Run a sharded Plan on a real transport: each stage's sessions go to
   the Endpoint shard pool, with one recording trace per shard when
   observability was asked for.  Returns the merged result, aggregate
   wire statistics (NR = the plan's declared rounds, NM/MS summed over
   every shard's Net_wire log), a transcript grouped by shard, the
   Net_wire accounting, and the per-shard trace sections for
   Metrics.merge. *)
let run_pipeline_plan ~trace ~workers transport (plan : _ Spe_core.Plan.t) =
  let module Plan = Spe_core.Plan in
  let module Session = Spe_mpc.Session in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  (* Same compute-friendly timeouts as the unsharded transport path. *)
  let config =
    { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }
  in
  let recording = Spe_obs.Trace.enabled trace in
  let sections = ref [] and logs_rev = ref [] and transcript_rev = ref [] in
  let transport_total = ref 0 in
  List.iter
    (fun (stage : Plan.stage) ->
      let traces =
        Array.map
          (fun _ ->
            if recording then Spe_obs.Trace.create () else Spe_obs.Trace.disabled ())
          stage.Plan.sessions
      in
      let out =
        match transport with
        | `Memory ->
          Endpoint.run_sessions_memory ~config ~workers ~traces stage.Plan.sessions
        | `Socket ->
          Endpoint.run_sessions_socket ~config ~workers ~traces stage.Plan.sessions
      in
      Array.iteri
        (fun i ((), (res : Endpoint.result)) ->
          transport_total := !transport_total + res.Endpoint.transport_bytes;
          let logs =
            Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes
          in
          logs_rev := logs :: !logs_rev;
          transcript_rev := Wire.messages (Net_wire.merge logs) :: !transcript_rev;
          let parties = Array.length stage.Plan.sessions.(i).Session.parties in
          sections :=
            (Printf.sprintf "%s[%d]" stage.Plan.label i, traces.(i), parties) :: !sections)
        out)
    plan.Plan.stages;
  let r = plan.Plan.result () in
  let totals = Net_wire.totals (Array.concat (List.rev !logs_rev)) in
  let stats =
    {
      Wire.rounds = Plan.total_rounds plan;
      messages = totals.Net_wire.messages;
      bits = 8 * totals.Net_wire.payload_bytes;
    }
  in
  ( r,
    stats,
    List.concat (List.rev !transcript_rev),
    Some (!transport_total, totals),
    List.rev !sections )

let transport_bytes_summary (stats : Wire.stats) = function
  | None -> ()
  | Some (bytes, _) ->
    Printf.printf "transport: %d framed bytes on the wire (%.3fx the payload)\n" bytes
      (float_of_int bytes /. (float_of_int stats.Wire.bits /. 8.))

(* --- observability plumbing (shared by links, scores and shares) ------ *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a session trace (spans, counters, notes - see OBSERVABILITY.md) and \
           write the event dump to FILE.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print the run's metrics report: human-readable (text) or spe-metrics/2 JSON \
           (json).  The JSON document is the last thing printed, starting at the first \
           column, so it can be split off the human output.")

(* A recording trace when --trace or --metrics asks for one; the
   near-free disabled trace otherwise. *)
let obs_trace trace_file metrics =
  if trace_file <> None || metrics <> None then Spe_obs.Trace.create ()
  else Spe_obs.Trace.disabled ()

(* After the run: cross-check a report against the independent wire
   accounting (NM and MS/8 must agree exactly; on a real transport the
   framed bytes must match Net_wire too), then emit what was asked
   for.  The metrics report goes last so `--metrics json` ends stdout
   with one clean JSON document. *)
let check_and_emit_report report ~messages ~payload_bytes ~net ~dump trace_file metrics =
  let module Metrics = Spe_obs.Metrics in
  if not (Metrics.equal_accounting report ~messages ~payload_bytes) then
    failwith
      (Printf.sprintf
         "trace accounting mismatch: observed %d messages / %d payload bytes, wire \
          accounted %d / %d"
         report.Metrics.messages report.Metrics.payload_bytes messages payload_bytes);
  (match net with
  | None -> ()
  | Some (_, (totals : Spe_net.Net_wire.totals)) -> (
    match report.Metrics.framed_bytes with
    | Some framed when framed = totals.Spe_net.Net_wire.framed_bytes -> ()
    | Some framed ->
      failwith
        (Printf.sprintf "trace framed-byte mismatch: observed %d, Net_wire says %d"
           framed totals.Spe_net.Net_wire.framed_bytes)
    | None -> failwith "trace recorded no framed bytes on a real transport"));
  (match trace_file with
  | None -> ()
  | Some path ->
    let text, events = dump () in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s (%d events)\n" path events);
  match metrics with
  | None -> ()
  | Some `Text -> print_string (Spe_obs.Obs_io.report_to_text report)
  | Some `Json -> print_string (Spe_obs.Obs_io.report_to_string report)

let emit_observability trace ~protocol ~engine ~parties ~messages ~payload_bytes ~net
    trace_file metrics =
  if Spe_obs.Trace.enabled trace then begin
    let report = Spe_obs.Metrics.of_trace ~protocol ~engine ~parties trace in
    check_and_emit_report report ~messages ~payload_bytes ~net
      ~dump:(fun () ->
        (Spe_obs.Obs_io.trace_to_text trace, List.length (Spe_obs.Trace.events trace)))
      trace_file metrics
  end

(* Sharded transport runs record one trace per shard session; merge
   their reports (Metrics.merge, so --metrics shows the per-shard
   table) and dump the traces one labelled section at a time. *)
let emit_sharded_observability ~protocol ~engine ~messages ~payload_bytes ~net sections
    trace_file metrics =
  match sections with
  | (_, first, _) :: _ when Spe_obs.Trace.enabled first ->
    let module Metrics = Spe_obs.Metrics in
    let report =
      Metrics.merge
        (List.map
           (fun (_, tr, parties) -> Metrics.of_trace ~protocol ~engine ~parties tr)
           sections)
    in
    check_and_emit_report report ~messages ~payload_bytes ~net
      ~dump:(fun () ->
        let buf = Buffer.create 4096 in
        let events = ref 0 in
        List.iter
          (fun (label, tr, _) ->
            events := !events + List.length (Spe_obs.Trace.events tr);
            Buffer.add_string buf (Printf.sprintf "=== %s ===\n" label);
            Buffer.add_string buf (Spe_obs.Obs_io.trace_to_text tr))
          sections;
        (Buffer.contents buf, !events))
      trace_file metrics
  | _ -> ()

let engine_name = function
  | `Central -> "central"
  | `Sim -> "sim"
  | `Memory -> "memory"
  | `Socket -> "socket"

(* The central wire charges exact bit counts; the trace replay rounds
   each message up to whole bytes, so the cross-check must too. *)
let transcript_payload_bytes transcript =
  List.fold_left (fun acc (m : Wire.message) -> acc + ((m.Wire.bits + 7) / 8)) 0 transcript

(* --- spe generate ------------------------------------------------------ *)

(* Create [dir] and any missing parents. *)
let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok () else Error (dir ^ " exists and is not a directory")
  else
    match ensure_dir (Filename.dirname dir) with
    | Error _ as e -> e
    | Ok () -> (
      match Unix.mkdir dir 0o755 with
      | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> Ok ()
      | exception Unix.Unix_error (err, _, _) ->
        Error (Printf.sprintf "cannot create directory %s: %s" dir (Unix.error_message err)))

let generate_cmd =
  let users =
    Arg.(value & opt int 100 & info [ "users" ] ~docv:"N" ~doc:"Number of users.")
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("ba", `Ba); ("er", `Er); ("ws", `Ws) ]) `Ba
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Graph family: barabasi-albert (ba), erdos-renyi (er) or watts-strogatz (ws).")
  in
  let density =
    Arg.(
      value & opt int 3
      & info [ "density" ] ~docv:"D"
          ~doc:"Attachment count (ba), mean out-degree (er) or ring degree (ws).")
  in
  let actions =
    Arg.(value & opt int 50 & info [ "actions" ] ~docv:"A" ~doc:"Number of propagated actions.")
  in
  let providers =
    Arg.(value & opt int 2 & info [ "providers" ] ~docv:"M" ~doc:"Number of service providers.")
  in
  let probability =
    Arg.(
      value & opt float 0.25
      & info [ "probability" ] ~docv:"P" ~doc:"Planted influence probability per arc.")
  in
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory, created with its parents if missing.")
  in
  let classes =
    Arg.(
      value & opt int 0
      & info [ "classes" ] ~docv:"Q"
          ~doc:
            "Non-exclusive mode: partition the actions into Q classes, each supported \
             by a random provider subset, scatter records accordingly and write a \
             spec.txt alongside the logs.  0 (default) = exclusive split.")
  in
  let write_inputs seed users model density actions providers probability out_dir classes =
    let s = State.create ~seed () in
    let g =
      match model with
      | `Ba -> Generate.barabasi_albert s ~n:users ~m:density
      | `Er -> Generate.erdos_renyi_gnm s ~n:users ~m:(users * density)
      | `Ws ->
        let k = max 2 (density + (density mod 2)) in
        Generate.watts_strogatz s ~n:users ~k ~beta:0.15
    in
    let planted = Cascade.uniform_probabilities ~p:probability g in
    let log =
      Cascade.generate s planted
        { Cascade.num_actions = actions; seeds_per_action = 1; max_delay = 3 }
    in
    let parts, spec =
      if classes <= 0 then (Partition.exclusive s log ~m:providers, None)
      else begin
        let spec =
          Partition.random_class_spec s ~num_actions:actions ~m:providers ~num_classes:classes
        in
        (Partition.non_exclusive s log ~spec, Some spec)
      end
    in
    (match spec with
    | None -> ()
    | Some spec ->
      let path = Filename.concat out_dir "spec.txt" in
      Spe_actionlog.Spec_io.save spec path;
      Printf.printf "wrote %s (%d classes)\n" path classes);
    let graph_path = Filename.concat out_dir "graph.txt" in
    Graph_io.save g graph_path;
    Printf.printf "wrote %s (%d users, %d arcs)\n" graph_path (Digraph.n g)
      (Digraph.edge_count g);
    Array.iteri
      (fun k part ->
        let path = Filename.concat out_dir (Printf.sprintf "provider-%d.log" (k + 1)) in
        Log_io.save part path;
        Printf.printf "wrote %s (%d records)\n" path (Log.size part))
      parts
  in
  let run seed users model density actions providers probability out_dir classes =
    let* () = at_least "--users" 1 users in
    let* () = at_least "--actions" 1 actions in
    let* () = at_least "--providers" 1 providers in
    match ensure_dir out_dir with
    | Error msg -> `Error (true, "--out: " ^ msg)
    | Ok () -> (
      match write_inputs seed users model density actions providers probability out_dir classes with
      | () -> `Ok ()
      | exception Sys_error msg -> `Error (true, "--out: " ^ msg)
      | exception Invalid_argument msg -> `Error (false, msg))
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ users $ model $ density $ actions $ providers $ probability
       $ out_dir $ classes))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic social graph and provider action logs.")
    term

(* --- spe links ---------------------------------------------------------- *)

let links_cmd =
  let decay =
    Arg.(
      value
      & opt (some string) None
      & info [ "decay" ] ~docv:"KIND"
          ~doc:
            "Temporal decay for Eq. (2): 'linear' or 'exp:ALPHA'. Default: Eq. (1), no decay.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Action-class spec file: run the non-exclusive pipeline (Protocol 5 first).")
  in
  let obfuscation_arg =
    Arg.(
      value
      & opt (enum [ ("basic", Spe_core.Protocol5.Basic); ("enhanced", Spe_core.Protocol5.Enhanced) ])
          Spe_core.Protocol5.Enhanced
      & info [ "obfuscation" ] ~docv:"MODE"
          ~doc:"Protocol 5 obfuscation for the non-exclusive case: basic or enhanced.")
  in
  let transcript_arg =
    Arg.(value & flag & info [ "transcript" ] ~doc:"Print the full message transcript.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the full strength list to FILE.")
  in
  let print_strengths ~top strengths =
    let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) strengths in
    Printf.printf "link influence strengths (top %d of %d):\n" top (List.length sorted);
    List.iteri
      (fun i ((u, v), p) -> if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
      sorted
  in
  let run seed graph_path log_paths h c_factor modulus_bits decay top spec_path obfuscation
      transport shards workers show_transcript trace_file metrics out connect jobs
      dp_epsilon dp_sensitivity dp_public_degree =
    match
      if shards < 1 then Some "--shards must be at least 1"
      else if workers < 1 then Some "--workers must be at least 1"
      else if jobs < 1 then Some "--jobs must be at least 1"
      else if h < 1 then Some "--window h must be at least 1"
      else if c_factor < 1. then Some "--c-factor must be >= 1"
      else if modulus_bits < 2 || modulus_bits > 61 then
        Some "--modulus-bits must lie in [2, 61]"
      else if connect = None && transport = `Central && shards > 1 then
        Some "--shards needs --transport sim, memory or socket"
      else dp_check ~dp_epsilon ~dp_sensitivity ~dp_public_degree
    with
    | Some msg -> `Error (true, msg)
    | None ->
    match connect with
    | Some addr_spec ->
      if decay <> None || spec_path <> None then
        `Error (true, "--decay and --spec do not travel in a daemon job spec")
      else if show_transcript || trace_file <> None || metrics <> None then
        `Error
          ( true,
            "--transcript/--trace/--metrics are daemon-side with --connect; scrape the \
             daemon's --metrics-addr instead" )
      else if dp_public_degree <> None && graph_path = None then
        `Error (true, "--dp-public-degree needs --graph")
      else
        let* public_graph = load_graph_opt graph_path in
        run_connect ~addr_spec ~jobs
          {
            Serve_proto.default_spec with
            Serve_proto.pipeline = Serve_proto.Links;
            seed;
            shards;
            h;
            c_factor;
            modulus_bits;
          }
          ~print:(function
            | Serve_proto.Strengths strengths ->
              print_strengths ~top strengths;
              (match out with
              | None -> ()
              | Some path ->
                Spe_influence.Result_io.save_strengths strengths path;
                Printf.printf "wrote %s\n" path);
              (match dp_epsilon with
              | None -> ()
              | Some epsilon ->
                emit_dp_strengths
                  ~params:(dp_params ~seed ~dp_sensitivity epsilon)
                  ~public:
                    (dp_arc_public ~dp_public_degree public_graph)
                  strengths)
            | _ -> ())
    | None ->
    match (graph_path, log_paths) with
    | None, _ -> `Error (true, "--graph is required when not using --connect")
    | _, [] -> `Error (true, "--log is required when not using --connect")
    | Some graph_path, log_paths ->
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let estimator =
      match decay with
      | None -> Protocol4.Eq1
      | Some "linear" -> Protocol4.Eq2 (Link_strength.linear_decay_weights ~h)
      | Some spec when String.length spec > 4 && String.sub spec 0 4 = "exp:" -> (
        match float_of_string_opt (String.sub spec 4 (String.length spec - 4)) with
        | Some alpha -> Protocol4.Eq2 (Link_strength.exponential_decay_weights ~h ~alpha)
        | None -> failwith "bad --decay exp:ALPHA")
      | Some other -> failwith (Printf.sprintf "unknown decay %S" other)
    in
    let config =
      { Protocol4.c_factor; modulus = 1 lsl modulus_bits; h; estimator }
    in
    let spec = Option.map Spe_actionlog.Spec_io.load spec_path in
    let s = State.create ~seed () in
    let trace = obs_trace trace_file metrics in
    let protocol = match spec with None -> "links" | Some _ -> "links-nonexcl" in
    let strengths, stats, transcript, net, parties, payload_bytes, sections =
      match transport with
      | `Central ->
        let r =
          match spec with
          | None -> Driver.link_strengths_exclusive ~trace s ~graph ~logs config
          | Some spec ->
            Driver.link_strengths_non_exclusive ~trace s ~graph ~logs ~spec ~obfuscation
              config
        in
        ( r.Driver.strengths, r.Driver.wire, r.Driver.transcript, None,
          Array.length logs + 1, transcript_payload_bytes r.Driver.transcript, None )
      | (`Sim | `Memory | `Socket) as transport when shards = 1 ->
        let session =
          match spec with
          | None -> Spe_core.Driver_distributed.links_exclusive s ~graph ~logs config
          | Some spec ->
            Spe_core.Driver_distributed.links_non_exclusive s ~graph ~logs ~spec
              ~obfuscation config
        in
        let r, w, net = run_pipeline_session ~trace transport session in
        let stats = Wire.stats w in
        ( r.Protocol4.strengths, stats, Wire.messages w, net,
          Array.length session.Spe_mpc.Session.parties, stats.Wire.bits / 8, None )
      | (`Sim | `Memory | `Socket) as transport -> (
        let plan =
          match spec with
          | None -> Spe_core.Shard.links_exclusive s ~graph ~logs ~shards config
          | Some spec ->
            Spe_core.Shard.links_non_exclusive s ~graph ~logs ~spec ~obfuscation ~shards
              config
        in
        match transport with
        | `Sim ->
          let session = Spe_core.Plan.to_session plan in
          let r, w, net = run_pipeline_session ~trace `Sim session in
          let stats = Wire.stats w in
          ( r.Protocol4.strengths, stats, Wire.messages w, net,
            Array.length session.Spe_mpc.Session.parties, stats.Wire.bits / 8, None )
        | (`Memory | `Socket) as transport ->
          let r, stats, transcript, net, sections =
            run_pipeline_plan ~trace ~workers transport plan
          in
          ( r.Protocol4.strengths, stats, transcript, net, Array.length logs + 1,
            stats.Wire.bits / 8, Some sections ))
    in
    print_strengths ~top strengths;
    (match out with
    | None -> ()
    | Some path ->
      Spe_influence.Result_io.save_strengths strengths path;
      Printf.printf "wrote %s\n" path);
    (match dp_epsilon with
    | None -> ()
    | Some epsilon ->
      emit_dp_strengths
        ~params:(dp_params ~seed ~dp_sensitivity epsilon)
        ~public:(dp_arc_public ~dp_public_degree (Some graph))
        strengths);
    wire_summary stats;
    transport_bytes_summary stats net;
    if show_transcript then begin
      Printf.printf "\ntranscript:\n";
      List.iter
        (fun (msg : Wire.message) ->
          Format.printf "  r%-3d %a -> %a  %d bits@." msg.Wire.round Wire.pp_party
            msg.Wire.src Wire.pp_party msg.Wire.dst msg.Wire.bits)
        transcript
    end;
    (match sections with
    | None ->
      emit_observability trace ~protocol ~engine:(engine_name transport) ~parties
        ~messages:stats.Wire.messages ~payload_bytes ~net trace_file metrics
    | Some sections ->
      emit_sharded_observability ~protocol ~engine:(engine_name transport)
        ~messages:stats.Wire.messages ~payload_bytes ~net sections trace_file metrics);
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ graph_opt_arg $ logs_opt_arg $ h_arg $ c_arg $ modulus_bits_arg
       $ decay $ top_arg $ spec_arg $ obfuscation_arg $ pipeline_transport_arg $ shards_arg
       $ workers_arg $ transcript_arg $ trace_file_arg $ metrics_arg $ out_arg $ connect_arg
       $ jobs_arg $ dp_epsilon_arg $ dp_sensitivity_arg $ dp_public_degree_arg))
  in
  Cmd.v
    (Cmd.info "links"
       ~doc:
         "Securely compute link influence strengths (Protocol 4, exclusive case) over \
          provider log files, on any engine (--transport).")
    term

(* --- spe scores ---------------------------------------------------------- *)

let scores_cmd =
  let tau =
    Arg.(value & opt int 8 & info [ "tau" ] ~docv:"TAU" ~doc:"Propagation time threshold.")
  in
  let key_bits =
    Arg.(
      value & opt int 256
      & info [ "key-bits" ] ~docv:"BITS"
          ~doc:"Public-key modulus size for Protocol 6 (1024 = paper's deployment).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write all scores to FILE.")
  in
  let pack_slots =
    Arg.(
      value & opt int 1
      & info [ "pack-slots" ] ~docv:"SLOTS"
          ~doc:
            "Pack up to SLOTS time-difference entries into each Protocol 6 plaintext \
             (clamped to what the key admits).  1 disables packing and is bit-identical \
             to the paper's protocol.")
  in
  let print_scores ~top scores =
    let idx = Array.init (Array.length scores) (fun i -> i) in
    Array.sort (fun a b -> Stdlib.compare scores.(b) scores.(a)) idx;
    Printf.printf "user influence scores (top %d):\n" top;
    Array.iteri
      (fun rank u ->
        if rank < top then Printf.printf "  #%-3d user %-6d score %.3f\n" (rank + 1) u
            scores.(u))
      idx
  in
  let run seed graph_path log_paths tau key_bits pack_slots modulus_bits top transport
      shards workers trace_file metrics out connect jobs dp_epsilon dp_sensitivity
      dp_public_degree =
    match
      if shards < 1 then Some "--shards must be at least 1"
      else if workers < 1 then Some "--workers must be at least 1"
      else if jobs < 1 then Some "--jobs must be at least 1"
      else if pack_slots < 1 then Some "--pack-slots must be at least 1"
      else if tau < 1 then Some "--tau must be at least 1"
      else if key_bits < 16 then Some "--key-bits must be at least 16"
      else if modulus_bits < 2 || modulus_bits > 61 then
        Some "--modulus-bits must lie in [2, 61]"
      else if connect = None && transport = `Central && shards > 1 then
        Some "--shards needs --transport sim, memory or socket"
      else dp_check ~dp_epsilon ~dp_sensitivity ~dp_public_degree
    with
    | Some msg -> `Error (true, msg)
    | None ->
    match connect with
    | Some addr_spec ->
      if trace_file <> None || metrics <> None then
        `Error
          ( true,
            "--trace/--metrics are daemon-side with --connect; scrape the daemon's \
             --metrics-addr instead" )
      else if dp_public_degree <> None && graph_path = None then
        `Error (true, "--dp-public-degree needs --graph")
      else
        let* public_graph = load_graph_opt graph_path in
        run_connect ~addr_spec ~jobs
          {
            Serve_proto.default_spec with
            Serve_proto.pipeline = Serve_proto.Scores;
            seed;
            shards;
            modulus_bits;
            tau;
            key_bits;
            pack_slots;
          }
          ~print:(function
            | Serve_proto.Scores scores ->
              print_scores ~top scores;
              (match out with
              | None -> ()
              | Some path ->
                Spe_influence.Result_io.save_scores scores path;
                Printf.printf "wrote %s\n" path);
              (match dp_epsilon with
              | None -> ()
              | Some epsilon ->
                emit_dp_vector
                  ~params:(dp_params ~seed ~dp_sensitivity epsilon)
                  ~public:
                    (dp_node_public ~dp_public_degree public_graph)
                  ~what:"user scores" scores)
            | _ -> ())
    | None ->
    match (graph_path, log_paths) with
    | None, _ -> `Error (true, "--graph is required when not using --connect")
    | _, [] -> `Error (true, "--log is required when not using --connect")
    | Some graph_path, log_paths ->
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let config = { Protocol6.default_config with Protocol6.key_bits; pack_slots } in
    let modulus = 1 lsl modulus_bits in
    let s = State.create ~seed () in
    let trace = obs_trace trace_file metrics in
    let scores, stats, net, parties, payload_bytes, sections =
      match transport with
      | `Central ->
        let r = Driver.user_scores_exclusive ~trace s ~graph ~logs ~tau ~modulus config in
        ( r.Driver.scores, r.Driver.wire, None, Array.length logs + 1,
          transcript_payload_bytes r.Driver.transcript, None )
      | (`Sim | `Memory | `Socket) as transport when shards = 1 ->
        let session =
          Spe_core.Driver_distributed.user_scores_exclusive s ~graph ~logs ~tau ~modulus
            config
        in
        let r, w, net = run_pipeline_session ~trace transport session in
        let stats = Wire.stats w in
        ( r.Spe_core.Driver_distributed.scores, stats, net,
          Array.length session.Spe_mpc.Session.parties, stats.Wire.bits / 8, None )
      | (`Sim | `Memory | `Socket) as transport -> (
        let plan =
          Spe_core.Shard.user_scores_exclusive s ~graph ~logs ~tau ~modulus ~shards config
        in
        match transport with
        | `Sim ->
          let session = Spe_core.Plan.to_session plan in
          let r, w, net = run_pipeline_session ~trace `Sim session in
          let stats = Wire.stats w in
          ( r.Spe_core.Driver_distributed.scores, stats, net,
            Array.length session.Spe_mpc.Session.parties, stats.Wire.bits / 8, None )
        | (`Memory | `Socket) as transport ->
          let r, stats, _transcript, net, sections =
            run_pipeline_plan ~trace ~workers transport plan
          in
          ( r.Spe_core.Driver_distributed.scores, stats, net, Array.length logs + 1,
            stats.Wire.bits / 8, Some sections ))
    in
    print_scores ~top scores;
    (match out with
    | None -> ()
    | Some path ->
      Spe_influence.Result_io.save_scores scores path;
      Printf.printf "wrote %s\n" path);
    (match dp_epsilon with
    | None -> ()
    | Some epsilon ->
      emit_dp_vector
        ~params:(dp_params ~seed ~dp_sensitivity epsilon)
        ~public:(dp_node_public ~dp_public_degree (Some graph))
        ~what:"user scores" scores);
    wire_summary stats;
    transport_bytes_summary stats net;
    (match sections with
    | None ->
      emit_observability trace ~protocol:"scores" ~engine:(engine_name transport) ~parties
        ~messages:stats.Wire.messages ~payload_bytes ~net trace_file metrics
    | Some sections ->
      emit_sharded_observability ~protocol:"scores" ~engine:(engine_name transport)
        ~messages:stats.Wire.messages ~payload_bytes ~net sections trace_file metrics);
    `Ok ()
  in
  let term =
    Term.(
      ret (const run $ seed_arg $ graph_opt_arg $ logs_opt_arg $ tau $ key_bits
         $ pack_slots $ modulus_bits_arg $ top_arg $ pipeline_transport_arg $ shards_arg
         $ workers_arg $ trace_file_arg $ metrics_arg $ out_arg $ connect_arg $ jobs_arg
         $ dp_epsilon_arg $ dp_sensitivity_arg $ dp_public_degree_arg))
  in
  Cmd.v
    (Cmd.info "scores"
       ~doc:
         "Securely compute user influence scores (Protocol 6 + Def. 3.3), on any \
          engine (--transport).")
    term

(* --- spe rank ------------------------------------------------------------- *)

(* The second estimand family (ROADMAP item 5): activity-personalised
   PageRank / degree centrality.  The graph is public to H; the per-user
   activity that personalises the teleport vector stays split across the
   providers and only its aggregate is reconstructed (Protocol 1/2
   primitives), so the protocol releases exactly what the plaintext
   fixed-point oracle computes — bit-identical on every engine. *)

let rank_cmd =
  let damping_arg =
    Arg.(
      value & opt float 0.85
      & info [ "damping" ] ~docv:"D" ~doc:"PageRank damping factor, in [0, 1).")
  in
  let iterations_arg =
    Arg.(
      value & opt int 25
      & info [ "iterations" ] ~docv:"I" ~doc:"Power-iteration count (pagerank mode).")
  in
  let fbits_arg =
    Arg.(
      value & opt int 20
      & info [ "fbits" ] ~docv:"B"
          ~doc:
            "Fixed-point fractional bits, in [4, 30] and below --modulus-bits; the \
             documented precision bound against the float recursion shrinks as 2^-B.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pagerank", `Pagerank); ("degree", `Degree) ]) `Pagerank
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Estimand: 'pagerank' (damped power iteration) or 'degree' (one blend).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the full rank vector to FILE.")
  in
  let print_ranks ~top ranks =
    let n = Array.length ranks in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> Stdlib.compare ranks.(b) ranks.(a)) order;
    Printf.printf "activity-personalised ranks (top %d of %d):\n" (min top n) n;
    Array.iteri
      (fun i u ->
        if i < top then Printf.printf "  #%-3d user %-6d rank %.6f\n" (i + 1) u ranks.(u))
      order
  in
  let run seed graph_path log_paths damping iterations fbits mode modulus_bits top
      transport shards workers trace_file metrics out connect jobs dp_epsilon
      dp_sensitivity dp_public_degree =
    match
      if shards < 1 then Some "--shards must be at least 1"
      else if workers < 1 then Some "--workers must be at least 1"
      else if jobs < 1 then Some "--jobs must be at least 1"
      else if modulus_bits < 2 || modulus_bits > 61 then
        Some "--modulus-bits must lie in [2, 61]"
      else if iterations < 0 then Some "--iterations must be >= 0"
      else if Float.is_nan damping || damping < 0. || damping >= 1. then
        Some "--damping must lie in [0, 1)"
      else if fbits < 4 || fbits > 30 then Some "--fbits must lie in [4, 30]"
      else if fbits >= modulus_bits then Some "--fbits must lie below --modulus-bits"
      else if connect = None && transport = `Central && shards > 1 then
        Some "--shards needs --transport sim, memory or socket"
      else dp_check ~dp_epsilon ~dp_sensitivity ~dp_public_degree
    with
    | Some msg -> `Error (true, msg)
    | None ->
    let oracle =
      {
        Rank_oracle.mode =
          (match mode with `Pagerank -> Rank_oracle.Pagerank | `Degree -> Rank_oracle.Degree);
        damping;
        iterations;
        fbits;
      }
    in
    match connect with
    | Some addr_spec ->
      if trace_file <> None || metrics <> None then
        `Error
          ( true,
            "--trace/--metrics are daemon-side with --connect; scrape the daemon's \
             --metrics-addr instead" )
      else if dp_public_degree <> None && graph_path = None then
        `Error (true, "--dp-public-degree needs --graph")
      else
        let* public_graph = load_graph_opt graph_path in
        run_connect ~addr_spec ~jobs
          {
            Serve_proto.default_spec with
            Serve_proto.pipeline = Serve_proto.Rank;
            seed;
            shards;
            modulus_bits;
            damping;
            iterations;
            fbits;
            rank_degree = (mode = `Degree);
          }
          ~print:(function
            | Serve_proto.Rank_summary { ranks_fx; fbits } ->
              let scale = float_of_int (1 lsl fbits) in
              let ranks = Array.map (fun fx -> float_of_int fx /. scale) ranks_fx in
              print_ranks ~top ranks;
              (match out with
              | None -> ()
              | Some path ->
                Spe_influence.Result_io.save_scores ranks path;
                Printf.printf "wrote %s\n" path);
              (match dp_epsilon with
              | None -> ()
              | Some epsilon ->
                emit_dp_vector
                  ~params:(dp_params ~seed ~dp_sensitivity epsilon)
                  ~public:
                    (dp_node_public ~dp_public_degree public_graph)
                  ~what:"rank vector" ranks)
            | _ -> ())
    | None ->
    match (graph_path, log_paths) with
    | None, _ -> `Error (true, "--graph is required when not using --connect")
    | _, [] -> `Error (true, "--log is required when not using --connect")
    | Some graph_path, log_paths ->
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let n = Digraph.n graph in
    let aggregate_activity () =
      let a = Array.make n 0 in
      Array.iter
        (fun l ->
          if Log.num_users l <> n then
            invalid_arg "rank: log/graph user universe mismatch";
          Array.iteri (fun i v -> a.(i) <- a.(i) + v) (Log.user_activity l))
        logs;
      a
    in
    let plaintext () =
      Rank_oracle.to_floats oracle (Rank_oracle.fixed oracle graph ~activity:(aggregate_activity ()))
    in
    let emit_dp ?mpc_plaintext ranks =
      match dp_epsilon with
      | None -> ()
      | Some epsilon ->
        emit_dp_vector
          ~params:(dp_params ~seed ~dp_sensitivity epsilon)
          ~public:(dp_node_public ~dp_public_degree (Some graph))
          ?plaintext:mpc_plaintext ~what:"rank vector" ranks
    in
    let config = { Protocol_rank.oracle; modulus = 1 lsl modulus_bits } in
    let s = State.create ~seed () in
    let trace = obs_trace trace_file metrics in
    match transport with
    | `Central -> (
      (* The central engine is the plaintext fixed-point oracle itself:
         same arithmetic, no protocol run and no wire. *)
      match plaintext () with
      | exception Invalid_argument msg -> `Error (false, msg)
      | ranks ->
        print_ranks ~top ranks;
        (match out with
        | None -> ()
        | Some path ->
          Spe_influence.Result_io.save_scores ranks path;
          Printf.printf "wrote %s\n" path);
        emit_dp ranks;
        Printf.printf "engine central: plaintext fixed-point oracle, no protocol run\n";
        `Ok ())
    | (`Sim | `Memory | `Socket) as transport -> (
      match Protocol_rank.plan s ~graph ~logs ~shards config with
      | exception Invalid_argument msg -> `Error (false, msg)
      | plan ->
        let result, stats, net, parties, payload_bytes, sections =
          match transport with
          | `Sim ->
            let session = Spe_core.Plan.to_session plan in
            let r, w, net = run_pipeline_session ~trace `Sim session in
            let stats = Wire.stats w in
            ( r, stats, net, Array.length session.Spe_mpc.Session.parties,
              stats.Wire.bits / 8, None )
          | (`Memory | `Socket) as transport ->
            let r, stats, _transcript, net, sections =
              run_pipeline_plan ~trace ~workers transport plan
            in
            ( r, stats, net, Array.length logs + 1, stats.Wire.bits / 8, Some sections )
        in
        let ranks = result.Protocol_rank.ranks in
        print_ranks ~top ranks;
        (match out with
        | None -> ()
        | Some path ->
          Spe_influence.Result_io.save_scores ranks path;
          Printf.printf "wrote %s\n" path);
        emit_dp ~mpc_plaintext:(plaintext ()) ranks;
        wire_summary stats;
        transport_bytes_summary stats net;
        (match sections with
        | None ->
          emit_observability trace ~protocol:"rank" ~engine:(engine_name transport)
            ~parties ~messages:stats.Wire.messages ~payload_bytes ~net trace_file metrics
        | Some sections ->
          emit_sharded_observability ~protocol:"rank" ~engine:(engine_name transport)
            ~messages:stats.Wire.messages ~payload_bytes ~net sections trace_file metrics);
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ graph_opt_arg $ logs_opt_arg $ damping_arg
       $ iterations_arg $ fbits_arg $ mode_arg $ modulus_bits_arg $ top_arg
       $ pipeline_transport_arg $ shards_arg $ workers_arg $ trace_file_arg
       $ metrics_arg $ out_arg $ connect_arg $ jobs_arg $ dp_epsilon_arg
       $ dp_sensitivity_arg $ dp_public_degree_arg))
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:
         "Securely compute activity-personalised PageRank / degree centrality \
          (Protocol_rank over the Protocol 1-3 primitives), bit-identical to the \
          plaintext fixed-point oracle on every engine (--transport, --connect).")
    term

(* --- spe stream ----------------------------------------------------------- *)

(* Epoch-delta streaming: replay the providers' logs as seeded arrival
   streams, accumulate them in sliding-window counters, and re-release
   the pair estimates every epoch, re-running the protocols only over
   the dirtied counter groups (Spe_core.Delta).  The same seed
   derivation as the daemons' Stream jobs, so `spe stream` in-process
   and `spe stream --connect` against a deployment loaded with the same
   workload release identical digests. *)

let stream_cmd =
  let module Source = Spe_actionlog.Source in
  let module Stream = Spe_influence.Stream in
  let module Counters = Spe_influence.Counters in
  let module Delta = Spe_core.Delta in
  let module Plan = Spe_core.Plan in
  let module Session = Spe_mpc.Session in
  let module Endpoint = Spe_net.Endpoint in
  let epoch_arg =
    Arg.(
      value & opt int 25
      & info [ "epoch"; "epoch-ticks" ] ~docv:"TICKS"
          ~doc:"Arrival ticks per release epoch.")
  in
  let window_arg =
    Arg.(
      value & opt int 0
      & info [ "window"; "stream-window" ] ~docv:"N"
          ~doc:
            "Sliding temporal window: a record leaves the counters once its timestamp \
             falls N time units behind the stream clock.  0 (the default) keeps \
             everything — pure accumulation.  (Unlike links/scores, --window here is \
             the stream window; the estimator's memory width is -h.)")
  in
  let epochs_arg =
    Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"E" ~doc:"Release epochs to run.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.5
      & info [ "rate" ] ~docv:"R" ~doc:"Mean record arrivals per tick, per provider.")
  in
  let burstiness_arg =
    Arg.(
      value & opt float 0.
      & info [ "burstiness" ] ~docv:"B"
          ~doc:
            "Markov-modulated arrival burstiness in [0, 1): 0 is a plain Poisson \
             process, higher values alternate calm and burst regimes.")
  in
  let jitter_arg =
    Arg.(
      value & opt int 0
      & info [ "jitter" ] ~docv:"J"
          ~doc:"Bounded arrival reordering: each record lands up to J ticks late.")
  in
  let h_only_arg =
    Arg.(value & opt int 3 & info [ "h" ] ~docv:"H" ~doc:"Memory-window width h.")
  in
  let stream_transport_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]) `Sim
      & info [ "transport" ] ~docv:"ENGINE"
          ~doc:
            "Engine executing each epoch's delta plan: sim, memory or socket.  The \
             released bits are engine-independent.")
  in
  let verify_full_arg =
    Arg.(
      value & flag
      & info [ "verify-full" ]
          ~doc:
            "Also run a full per-epoch recompute (every counter group re-shared every \
             epoch) in lockstep and assert its release digest matches the delta path's \
             at every epoch — the bit-identity invariant, checked live.")
  in
  let print_summary ~top ~epochs digests recomputed strengths =
    Array.iteri
      (fun e d -> Printf.printf "epoch %d: %d group(s) recomputed, digest %016x\n" e
          recomputed.(e) d)
      digests;
    Printf.printf "%d epoch(s) released\n" epochs;
    let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) strengths in
    Printf.printf "final link strengths (top %d of %d):\n" top (List.length sorted);
    List.iteri
      (fun i ((u, v), p) -> if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
      sorted
  in
  let run seed graph_path log_paths epoch_ticks window epochs rate burstiness jitter h
      c_factor modulus_bits transport top verify_full connect jobs =
    match
      if epoch_ticks < 1 then Some "--epoch must be at least 1"
      else if window < 0 then Some "--stream-window must be >= 0"
      else if epochs < 1 then Some "--epochs must be at least 1"
      else if rate <= 0. then Some "--rate must be positive"
      else if burstiness < 0. || burstiness >= 1. then Some "--burstiness must be in [0, 1)"
      else if jitter < 0 then Some "--jitter must be >= 0"
      else if h < 1 then Some "--h must be at least 1"
      else if c_factor < 1. then Some "--c-factor must be >= 1"
      else if modulus_bits < 2 || modulus_bits > 61 then
        Some "--modulus-bits must lie in [2, 61]"
      else if jobs < 1 then Some "--jobs must be at least 1"
      else None
    with
    | Some msg -> `Error (true, msg)
    | None ->
    match connect with
    | Some addr_spec ->
      if verify_full then
        `Error
          ( true,
            "--verify-full is an in-process check; daemons run the delta plan — compare \
             against a local run with the same seed instead" )
      else
        run_connect ~addr_spec ~jobs
          {
            Serve_proto.default_spec with
            Serve_proto.pipeline = Serve_proto.Stream;
            seed;
            h;
            c_factor;
            modulus_bits;
            epoch_ticks;
            window;
            epochs;
            rate;
            burstiness;
            jitter;
          }
          ~print:(function
            | Serve_proto.Stream_summary { digests; recomputed; strengths } ->
              print_summary ~top ~epochs:(Array.length digests) digests recomputed
                strengths
            | _ -> ())
    | None ->
    match (graph_path, log_paths) with
    | None, _ -> `Error (true, "--graph is required when not using --connect")
    | _, [] -> `Error (true, "--log is required when not using --connect")
    | Some graph_path, log_paths ->
      let* graph = load_graph graph_path in
      let* logs = load_logs log_paths in
      if Array.length logs < 2 then `Error (true, "need at least two --log providers")
      else begin
        let m = Array.length logs in
        let num_actions =
          Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs
        in
        let config =
          {
            Protocol4.c_factor;
            modulus = 1 lsl modulus_bits;
            h;
            estimator = Protocol4.Eq1;
          }
        in
        (* One streaming instance: its Delta pipeline, the per-provider
           sources, and windowed accumulators over its published pair
           order.  [verify-full] builds a second one from the same seeds
           — identical ingestion, every group recomputed every epoch. *)
        let instance () =
          let d =
            Delta.create
              (State.create ~seed ())
              ~graph ~m ~num_actions ~group_seed:(seed lxor 0x5bd1e995) config
          in
          let pairs = Delta.pairs d in
          let sources =
            Array.mapi
              (fun k l ->
                Source.create
                  (State.create ~seed:(seed + 101 + k) ())
                  l ~rate ~burstiness ~jitter ())
              logs
          in
          let streams =
            Array.map
              (fun _ ->
                Stream.create
                  ?window:(if window = 0 then None else Some window)
                  ~num_users:(Digraph.n graph) ~num_actions ~h ~pairs ())
              logs
          in
          (d, sources, streams)
        in
        let union_sorted lists = List.sort_uniq compare (List.concat lists) in
        let epoch_input ~epoch ~horizon (sources, streams) =
          let arrivals = ref 0 in
          Array.iteri
            (fun k src ->
              List.iter
                (fun (r : Log.record) ->
                  incr arrivals;
                  let acc = streams.(k) in
                  Stream.advance acc ~now:(max (Stream.now acc) r.Log.time);
                  Stream.add acc r)
                (Source.take_until src ~arrival:horizon))
            sources;
          let dirty_users =
            union_sorted (Array.to_list (Array.map Stream.dirty_users streams))
          in
          let dirty_pairs =
            union_sorted (Array.to_list (Array.map Stream.dirty_pairs streams))
          in
          let inputs =
            Array.map
              (fun acc ->
                let c = Stream.snapshot acc in
                { Protocol4.a = c.Counters.a; c = c.Counters.c })
              streams
          in
          Array.iter Stream.clear_dirty streams;
          (!arrivals, { Delta.epoch; dirty_users; dirty_pairs; inputs })
        in
        let endpoint_config =
          { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }
        in
        let run_plan engine (plan : _ Plan.t) =
          match engine with
          | `Sim -> Session.run (Plan.to_session plan) ~wire:(Wire.create ())
          | (`Memory | `Socket) as e ->
            List.iter
              (fun (stage : Plan.stage) ->
                ignore
                  (match e with
                  | `Memory ->
                    Endpoint.run_sessions_memory ~config:endpoint_config ~workers:2
                      stage.Plan.sessions
                  | `Socket ->
                    Endpoint.run_sessions_socket ~config:endpoint_config ~workers:2
                      stage.Plan.sessions))
              plan.Plan.stages;
            plan.Plan.result ()
        in
        let d, srcs, accs = instance () in
        let full_i = if verify_full then Some (instance ()) else None in
        let t0 = Unix.gettimeofday () in
        let total_arrivals = ref 0 in
        let mismatch = ref None in
        let last = ref None in
        for e = 0 to epochs - 1 do
          let horizon = (e + 1) * epoch_ticks in
          let arrivals, input = epoch_input ~epoch:e ~horizon (srcs, accs) in
          total_arrivals := !total_arrivals + arrivals;
          let release = run_plan transport (Delta.epoch_plan d ~mode:Delta.Delta input) in
          last := Some release;
          Printf.printf "epoch %d: %d arrival(s), %d group(s) recomputed, digest %016x%s\n%!"
            e arrivals release.Delta.recomputed release.Delta.digest
            (match full_i with
            | None -> ""
            | Some (fd, fsrcs, faccs) ->
              let _, finput = epoch_input ~epoch:e ~horizon (fsrcs, faccs) in
              let full = run_plan `Sim (Delta.epoch_plan fd ~mode:Delta.Full finput) in
              if full.Delta.digest = release.Delta.digest then " = full"
              else begin
                if !mismatch = None then mismatch := Some e;
                Printf.sprintf " <> full %016x" full.Delta.digest
              end)
        done;
        let wall = Unix.gettimeofday () -. t0 in
        (match !last with
        | None -> ()
        | Some release ->
          let sorted =
            List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) release.Delta.strengths
          in
          Printf.printf "final link strengths (top %d of %d):\n" top (List.length sorted);
          List.iteri
            (fun i ((u, v), p) ->
              if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
            sorted);
        Printf.printf "%d epoch(s), %d record(s) in %.2f s (%.1f sustained updates/s)\n"
          epochs !total_arrivals wall
          (if wall > 0. then float_of_int !total_arrivals /. wall else 0.);
        (match !mismatch with
        | None ->
          if verify_full then
            Printf.printf "verify-full: delta releases bit-identical to full recompute\n";
          `Ok ()
        | Some e ->
          `Error
            ( false,
              Printf.sprintf "verify-full: delta and full release digests diverge at epoch %d"
                e ))
      end
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ graph_opt_arg $ logs_opt_arg $ epoch_arg $ window_arg
       $ epochs_arg $ rate_arg $ burstiness_arg $ jitter_arg $ h_only_arg $ c_arg
       $ modulus_bits_arg $ stream_transport_arg $ top_arg $ verify_full_arg
       $ connect_arg $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Replay the action logs as timestamped arrival streams and re-release link \
          strengths every epoch, re-running the secure protocols only over the counter \
          groups the window moved (Spe_core.Delta).  --verify-full checks the released \
          bits against a full per-epoch recompute.")
    term

(* --- spe campaign --------------------------------------------------------- *)

let campaign_cmd =
  let k = Arg.(value & opt int 5 & info [ "k"; "seed-count" ] ~docv:"K" ~doc:"Seed-set size.") in
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"S" ~doc:"Monte-Carlo cascade samples per evaluation.")
  in
  let run seed graph_path log_paths h k samples =
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let s = State.create ~seed () in
    let r = Driver.link_strengths_exclusive s ~graph ~logs (Protocol4.default_config ~h) in
    let model = Maximize.of_strengths graph r.Driver.strengths in
    let seeds, spread = Maximize.celf s model ~k ~samples in
    Printf.printf "campaign seeds (CELF on securely learned strengths):\n";
    List.iteri (fun i u -> Printf.printf "  %d. user %d\n" (i + 1) u) seeds;
    Printf.printf "expected spread under the learned model: %.1f users\n" spread;
    wire_summary r.Driver.wire;
    `Ok ()
  in
  let term =
    Term.(ret (const run $ seed_arg $ graph_arg $ logs_arg $ h_arg $ k $ samples))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Pick viral-marketing seeds from securely learned link strengths.")
    term

(* --- spe privacy ------------------------------------------------------------ *)

let privacy_cmd =
  let bound =
    Arg.(value & opt int 10 & info [ "bound" ] ~docv:"A" ~doc:"Counter range bound A.")
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"T" ~doc:"Trials per value of x.")
  in
  let prior =
    Arg.(
      value & opt string "uniform"
      & info [ "prior" ] ~docv:"PRIOR" ~doc:"Prior: 'uniform', 'unimodal' or 'geometric:P'.")
  in
  let run seed bound trials prior_spec =
    let* () = at_least "--trials" 1 trials in
    let* prior =
      match prior_spec with
      | "uniform" -> Ok (Posterior.uniform_prior ~bound)
      | "unimodal" -> Ok (Posterior.unimodal_prior ~bound)
      | spec when String.length spec > 10 && String.sub spec 0 10 = "geometric:" -> (
        match float_of_string_opt (String.sub spec 10 (String.length spec - 10)) with
        | Some p -> (
          try Ok (Posterior.geometric_prior ~bound ~p)
          with Invalid_argument msg -> Error ("--prior: " ^ msg))
        | None -> Error "bad --prior geometric:P")
      | other -> Error (Printf.sprintf "--prior: unknown prior %S" other)
    in
    let s = State.create ~seed () in
    match Gain.run s ~prior ~trials_per_x:trials with
    | exception Invalid_argument msg -> `Error (false, msg)
    | r ->
    Printf.printf "masking-gain experiment (Sec. 7.2): %d samples\n" (Array.length r.Gain.gains);
    Printf.printf "average gain      = %+.4f\n" r.Gain.average;
    Printf.printf "positive fraction = %.3f\n" r.Gain.positive_fraction;
    Format.printf "%a" Gain.pp_histogram r.Gain.histogram;
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ bound $ trials $ prior)) in
  Cmd.v
    (Cmd.info "privacy" ~doc:"Run the Sec. 7.2 masking-gain experiment (Figure 1).")
    term

(* --- spe costs --------------------------------------------------------------- *)

let costs_cmd =
  let n = Arg.(value & opt int 1000 & info [ "users" ] ~docv:"N" ~doc:"Number of users.") in
  let q = Arg.(value & opt int 8000 & info [ "pairs" ] ~docv:"Q" ~doc:"Published pair count |E'|.") in
  let m = Arg.(value & opt int 5 & info [ "providers" ] ~docv:"M" ~doc:"Number of providers.") in
  let actions =
    Arg.(value & opt int 50 & info [ "actions" ] ~docv:"A" ~doc:"Total actions (Table 2).")
  in
  let z =
    Arg.(
      value & opt int 1024 & info [ "ciphertext-bits" ] ~docv:"Z" ~doc:"Ciphertext size in bits (Table 2).")
  in
  let run n q m modulus_bits actions z =
    let node_bits = Wire.bits_for_int_mod (max 2 n) in
    Printf.printf "Table 1 model (Protocol 4):\n";
    Format.printf "%a@."
      Model.pp
      (Model.table1 ~n ~q ~m ~modulus_bits ~node_bits ~counters:(n + q));
    let per = actions / m in
    let firsts = actions - (per * (m - 1)) in
    let actions_per_provider = Array.init m (fun k -> if k = 0 then firsts else per) in
    Printf.printf "\nTable 2 model (Protocol 6):\n";
    Format.printf "%a@."
      Model.pp
      (Model.table2 ~q ~m ~node_bits ~key_bits:(2 * z) ~ciphertext_bits:z
         ~actions_per_provider ());
    `Ok ()
  in
  let term = Term.(ret (const run $ n $ q $ m $ modulus_bits_arg $ actions $ z)) in
  Cmd.v
    (Cmd.info "costs" ~doc:"Print the analytic communication-cost tables (Sec. 7.1).")
    term

(* --- spe leakage ---------------------------------------------------------------- *)

let leakage_cmd =
  let bound =
    Arg.(value & opt int 100 & info [ "bound" ] ~docv:"A" ~doc:"Counter range bound A.")
  in
  let x = Arg.(value & opt int 50 & info [ "value" ] ~docv:"X" ~doc:"True aggregate value.") in
  let trials =
    Arg.(value & opt int 20000 & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials.")
  in
  let run seed modulus_bits bound x trials =
    let* () = at_least "--trials" 1 trials in
    let modulus = 1 lsl modulus_bits in
    match
      let t = Leakage.theoretical ~modulus ~input_bound:bound ~x in
      let s = State.create ~seed () in
      (t, Leakage.monte_carlo s ~modulus ~input_bound:bound ~x ~trials)
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | t, o ->
    let rate hits = float_of_int hits /. float_of_int trials in
    Printf.printf "Protocol 2 leak rates at S = 2^%d, A = %d, x = %d (%d trials):\n"
      modulus_bits bound x trials;
    Printf.printf "  P2 lower bound: theory %.5f, measured %.5f\n" t.Leakage.p2_lower
      (rate o.Leakage.p2_lower_hits);
    Printf.printf "  P2 upper bound: theory %.5f, measured %.5f\n" t.Leakage.p2_upper
      (rate o.Leakage.p2_upper_hits);
    Printf.printf "  P3 any bound:   bound  %.5f, measured %.5f\n"
      (t.Leakage.p3_lower +. t.Leakage.p3_upper)
      (rate (o.Leakage.p3_lower_hits + o.Leakage.p3_upper_hits));
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ modulus_bits_arg $ bound $ x $ trials)) in
  Cmd.v
    (Cmd.info "leakage" ~doc:"Measure Protocol 2's Theorem 4.1 leak rates empirically.")
    term

(* --- spe em ------------------------------------------------------------------------ *)

let em_cmd =
  let iterations =
    Arg.(value & opt int 100 & info [ "iterations" ] ~docv:"I" ~doc:"Maximum EM iterations.")
  in
  let run graph_path log_paths h iterations top =
    let* () = at_least "--iterations" 1 iterations in
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let log = Partition.reunify logs in
    match Spe_influence.Em.learn log graph ~h ~max_iterations:iterations with
    | exception Invalid_argument msg -> `Error (false, msg)
    | result ->
    let strengths = Spe_influence.Em.to_strengths result graph in
    let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) strengths in
    Printf.printf "EM baseline (Saito et al.), %d iterations, final log-likelihood %.2f\n"
      result.Spe_influence.Em.iterations
      (match List.rev result.Spe_influence.Em.log_likelihood with ll :: _ -> ll | [] -> nan);
    Printf.printf "top %d arcs:\n" top;
    List.iteri
      (fun i ((u, v), p) -> if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
      sorted;
    Printf.printf
      "note: EM runs on the unified log in the clear - it is the non-private baseline\n\
       the paper's counting estimator (spe links) replaces.\n";
    `Ok ()
  in
  let term = Term.(ret (const run $ graph_arg $ logs_arg $ h_arg $ iterations $ top_arg)) in
  Cmd.v
    (Cmd.info "em"
       ~doc:"Learn influence probabilities with the EM baseline (non-private reference).")
    term

(* --- spe metrics ------------------------------------------------------------------- *)

let metrics_cmd =
  let run graph_path =
    let* g = load_graph graph_path in
    let module Metrics = Spe_graph.Metrics in
    Printf.printf "nodes              %d\n" (Digraph.n g);
    Printf.printf "arcs               %d\n" (Digraph.edge_count g);
    Printf.printf "max out-degree     %d\n" (Metrics.max_degree g `Out);
    Printf.printf "max in-degree      %d\n" (Metrics.max_degree g `In);
    Printf.printf "reciprocity        %.3f\n" (Metrics.reciprocity g);
    Printf.printf "global clustering  %.3f\n" (Metrics.global_clustering g);
    let pr = Metrics.pagerank g in
    Printf.printf "top PageRank users:";
    List.iter (fun v -> Printf.printf " %d (%.4f)" v pr.(v)) (Metrics.top_k 5 pr);
    Printf.printf "\n";
    `Ok ()
  in
  let term = Term.(ret (const run $ graph_arg)) in
  Cmd.v (Cmd.info "metrics" ~doc:"Print structural metrics of a social graph file.") term

(* --- spe verify ---------------------------------------------------------------------- *)

let verify_cmd =
  let run seed graph_path log_paths h =
    let* graph = load_graph graph_path in
    let* logs = load_logs log_paths in
    let s = State.create ~seed () in
    let r = Driver.link_strengths_exclusive s ~graph ~logs (Protocol4.default_config ~h) in
    (* The plaintext reference on the unified log the protocol never
       materialises. *)
    let unified = Partition.reunify logs in
    let ct =
      Spe_influence.Counters.compute unified ~h ~pairs:r.Driver.detail.Protocol4.pairs
    in
    let reference =
      Link_strength.restrict_to_graph ct (Link_strength.all_eq1 ct) graph
    in
    let max_err = ref 0. and worst = ref (0, 0) in
    List.iter2
      (fun ((u, v), exact) (_, secure) ->
        let err = abs_float (exact -. secure) in
        if err > !max_err then begin
          max_err := err;
          worst := (u, v)
        end)
      reference r.Driver.strengths;
    Printf.printf "verified %d arcs against the plaintext reference\n"
      (List.length r.Driver.strengths);
    Printf.printf "max |secure - exact| = %.3e (arc %d -> %d)\n" !max_err (fst !worst)
      (snd !worst);
    Printf.printf "%s\n"
      (if !max_err < 1e-3 then "OK: within the float-masking noise bound (1e-3)"
       else "WARNING: deviation exceeds the expected noise bound");
    wire_summary r.Driver.wire;
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ graph_arg $ logs_arg $ h_arg)) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the secure pipeline AND the plaintext reference on the same files and \
          report the deviation.")
    term

(* --- spe shares ----------------------------------------------------------------------- *)

(* Run the distributed sharing protocols (1 and 2) over a chosen
   engine: the in-process simulated wire, the in-memory transport or
   real Unix-domain sockets.  The shares and the NR/NM/MS statistics
   are engine-independent; the real transports additionally report the
   measured framed bytes and the framing overhead (DESIGN.md,
   "Framing overhead"). *)

let shares_cmd =
  let module P1d = Spe_mpc.Protocol1_distributed in
  let module P2d = Spe_mpc.Protocol2_distributed in
  let module Session = Spe_mpc.Session in
  let module Runtime = Spe_mpc.Runtime in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  let protocol_arg =
    Arg.(
      value
      & opt (enum [ ("1", `P1); ("2", `P2) ]) `P1
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Which sharing protocol: 1 (modular shares) or 2 (integer shares).")
  in
  let transport_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]) `Sim
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Engine hosting the party programs: the simulated wire (sim), in-memory \
             channels (memory) or Unix-domain sockets (socket).")
  in
  let providers_arg =
    Arg.(value & opt int 3 & info [ "providers" ] ~docv:"M" ~doc:"Number of sharing parties.")
  in
  let counters_arg =
    Arg.(value & opt int 8 & info [ "counters" ] ~docv:"L" ~doc:"Counters shared per party.")
  in
  let bound_arg =
    Arg.(
      value & opt int 1000
      & info [ "bound" ] ~docv:"A" ~doc:"Protocol 2 aggregate bound A (ignored by protocol 1).")
  in
  let run seed protocol transport m len modulus_bits bound trace_file metrics =
    if m < 2 then `Error (false, "need at least two providers")
    else begin
      let modulus = 1 lsl modulus_bits in
      let parties = Array.init m (fun k -> Wire.Provider k) in
      let gen = State.create ~seed:(seed lxor 0x5e) () in
      let per_party_max = match protocol with `P1 -> modulus | `P2 -> bound / m in
      let inputs =
        Array.init m (fun _ -> Array.init len (fun _ -> State.next_int gen (max 1 per_party_max)))
      in
      let s = State.create ~seed () in
      let parties', programs, extract =
        match protocol with
        | `P1 ->
          let session = P1d.make s ~parties ~modulus ~inputs in
          ( session.Session.parties,
            session.Session.programs,
            fun () ->
              let r = session.Session.result () in
              (r.Spe_mpc.Protocol1.share1, r.Spe_mpc.Protocol1.share2) )
        | `P2 ->
          let session =
            P2d.make s ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
          in
          ( session.Session.parties,
            session.Session.programs,
            fun () ->
              let r = session.Session.result () in
              (r.Spe_mpc.Protocol2.share1, r.Spe_mpc.Protocol2.share2) )
      in
      let max_rounds = match protocol with `P1 -> P1d.max_rounds | `P2 -> P2d.max_rounds in
      let trace = obs_trace trace_file metrics in
      let stats, transport_bytes =
        match transport with
        | `Sim ->
          let engine = Runtime.create () in
          Array.iteri (fun k p -> Runtime.add_party engine p programs.(k)) parties';
          let w = Wire.create () in
          let _rounds =
            Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
                Runtime.run ~trace engine ~wire:w ~max_rounds)
          in
          (Wire.stats w, None)
        | `Memory | `Socket ->
          let res =
            Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
                match transport with
                | `Memory ->
                  Endpoint.run_memory ~trace ~parties:parties' ~programs ~max_rounds ()
                | _ -> Endpoint.run_socket ~trace ~parties:parties' ~programs ~max_rounds ())
          in
          let logs =
            Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes
          in
          (Wire.stats (Net_wire.merge logs), Some (res.Endpoint.transport_bytes, Net_wire.totals logs))
      in
      let share1, share2 = extract () in
      let preview = min len 8 in
      Printf.printf "protocol %s over %s, %d providers, %d counters, S = 2^%d\n"
        (match protocol with `P1 -> "1" | `P2 -> "2")
        (match transport with `Sim -> "the simulated wire" | `Memory -> "in-memory channels"
                            | `Socket -> "unix sockets")
        m len modulus_bits;
      Printf.printf "share1:";
      for l = 0 to preview - 1 do Printf.printf " %d" share1.(l) done;
      if preview < len then Printf.printf " ...";
      Printf.printf "\nshare2:";
      for l = 0 to preview - 1 do Printf.printf " %d" share2.(l) done;
      if preview < len then Printf.printf " ...";
      Printf.printf "\n";
      let ok = ref true in
      for l = 0 to len - 1 do
        let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
        let reconstructed =
          match protocol with
          | `P1 -> (share1.(l) + share2.(l)) mod modulus = x mod modulus
          | `P2 -> share1.(l) + share2.(l) = x
        in
        if not reconstructed then ok := false
      done;
      Printf.printf "reconstruction check: %s\n" (if !ok then "OK" else "FAILED");
      wire_summary stats;
      (match transport_bytes with
      | None -> ()
      | Some (total, totals) ->
        Printf.printf
          "transport: %d framed bytes on the wire (%d payload, overhead factor %.3f)\n"
          total totals.Net_wire.payload_bytes
          (float_of_int total /. float_of_int (max 1 totals.Net_wire.payload_bytes)));
      emit_observability trace
        ~protocol:(match protocol with `P1 -> "shares-p1" | `P2 -> "shares-p2")
        ~engine:(engine_name transport) ~parties:(Array.length parties')
        ~messages:stats.Wire.messages ~payload_bytes:(stats.Wire.bits / 8)
        ~net:transport_bytes trace_file metrics;
      if !ok then `Ok () else `Error (false, "share reconstruction failed")
    end
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ protocol_arg $ transport_arg $ providers_arg $ counters_arg
       $ modulus_bits_arg $ bound_arg $ trace_file_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "shares"
       ~doc:
         "Run the distributed sharing protocols over a real transport (or the simulated \
          wire) and compare the costs.")
    term

(* --- spe serve / scrape / shutdown ---------------------------------------------------- *)

(* Long-lived party daemons (lib/serve).  Each party of the deployment
   runs one `spe serve` process; `spe links|scores --connect` submits
   jobs to the host daemon; `spe scrape` reads a daemon's live metrics;
   `spe shutdown` drains and stops a whole roster. *)

let roster_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "roster" ] ~docv:"SPEC"
        ~doc:
          "Every party's daemon address, in any order: \
           H=ADDR,P1=ADDR,...,Pm=ADDR where ADDR is HOST:PORT or unix:PATH.")

let serve_cmd =
  let party_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "party" ] ~docv:"P" ~doc:"Which party this daemon is: H, P1, P2, ...")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Bind override (default: this party's roster entry) — e.g. bind 0.0.0.0 \
             while the roster advertises a hostname.")
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 4
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Concurrent pipeline jobs in flight at H (admission control bound).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Jobs allowed to wait past the active set; beyond it submissions get a \
                typed busy reply.")
  in
  let metrics_addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Also serve live metrics (spe-serve-metrics/1: scheduler gauges plus the \
             cumulative spe-metrics/2 report) at ADDR, over plain TCP or HTTP — see \
             spe scrape and OBSERVABILITY.md.")
  in
  let run party roster listen max_sessions max_queue metrics_addr graph_path log_paths =
    let* () = if max_sessions < 1 then Error "--max-sessions must be at least 1" else Ok () in
    let* () = if max_queue < 1 then Error "--max-queue must be at least 1" else Ok () in
    let* party = Serve_addr.party_of_string party in
    let* roster = Serve_addr.roster_of_string roster in
    let* listen =
      match listen with
      | None -> Ok None
      | Some s -> Result.map Option.some (Serve_addr.parse s)
    in
    let* metrics_addr =
      match metrics_addr with
      | None -> Ok None
      | Some s -> Result.map Option.some (Serve_addr.parse s)
    in
    if party >= Array.length roster then
      `Error
        ( true,
          Printf.sprintf "--party %s is outside the %d-party roster"
            (Serve_addr.party_name party) (Array.length roster) )
    else if List.length log_paths <> Array.length roster - 1 then
      `Error
        ( true,
          Printf.sprintf
            "the roster has %d providers but %d --log files were given; every daemon \
             loads the full workload (the plan rebuild is what makes the deployment \
             deterministic)"
            (Array.length roster - 1) (List.length log_paths) )
    else begin
      let* graph = load_graph graph_path in
      let* logs = load_logs log_paths in
      let config =
        {
          (Serve_daemon.default_config ~party ~roster) with
          Serve_daemon.listen;
          max_sessions;
          max_queue;
          metrics_addr;
        }
      in
      let shown = match listen with Some a -> a | None -> roster.(party) in
      Printf.printf "%s: %s listening on %s (%d parties, %d sessions, queue %d)%s\n%!"
        Serve_proto.protocol
        (Serve_addr.party_name party)
        (Serve_addr.to_string shown)
        (Array.length roster) max_sessions max_queue
        (match metrics_addr with
        | Some a -> Printf.sprintf ", metrics on %s" (Serve_addr.to_string a)
        | None -> "");
      match Serve_daemon.run config { Spe_serve.Job.graph; logs } with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg)
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot serve on %s: %s"
              (Serve_addr.to_string shown) (Unix.error_message err) )
    end
  in
  let term =
    Term.(
      ret
        (const run $ party_arg $ roster_arg $ listen_arg $ max_sessions_arg $ max_queue_arg
       $ metrics_addr_arg $ graph_arg $ logs_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one party as a long-lived daemon (spe-serve/3): connections to the peer \
          daemons are established once and reused across every submitted pipeline job; \
          the host daemon owns admission control.  Submit work with spe \
          links|scores|rank|stream --connect.")
    term

let scrape_cmd =
  let addr_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR" ~doc:"A daemon's --metrics-addr endpoint.")
  in
  let run addr_spec =
    match Serve_addr.parse addr_spec with
    | Error msg -> `Error (true, "--connect " ^ msg)
    | Ok addr -> (
      match Serve_client.scrape addr with
      | doc ->
        print_string doc;
        `Ok ()
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot scrape %s: %s" (Serve_addr.to_string addr)
              (Unix.error_message err) ))
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch a serve daemon's live metrics document (spe-serve-metrics/1) from its \
          --metrics-addr.")
    Term.(ret (const run $ addr_arg))

let shutdown_cmd =
  let timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"S" ~doc:"Per-daemon drain timeout in seconds.")
  in
  let run roster timeout =
    match Serve_addr.roster_of_string roster with
    | Error msg -> `Error (true, msg)
    | Ok roster -> (
      let seats = Serve_client.shutdown_seats ~timeout roster in
      let failures =
        List.concat
          (List.mapi
             (fun party -> function
               | Serve_client.Stopped -> []
               | Serve_client.Timed_out ->
                 [ Printf.sprintf "%s did not confirm shutdown in %.0f s"
                     (Serve_addr.party_name party) timeout ]
               | Serve_client.Unreachable msg ->
                 [ Printf.sprintf "%s unreachable: %s" (Serve_addr.party_name party) msg ])
             (Array.to_list seats))
      in
      let stopped = Array.length roster - List.length failures in
      match failures with
      | [] ->
        Printf.printf "all %d daemons drained and stopped\n" stopped;
        `Ok ()
      | _ ->
        `Error
          ( false,
            Printf.sprintf "%d of %d daemons confirmed shutdown; %s" stopped
              (Array.length roster) (String.concat "; " failures) ))
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Gracefully stop a whole daemon roster: H first (it drains in-flight jobs and \
          refuses queued ones with typed replies), then each provider.")
    Term.(ret (const run $ roster_arg $ timeout_arg))

(* --- spe chaos ------------------------------------------------------------------------ *)

(* Deterministic fault campaigns over the sharded pipelines: generate
   seeded fault schedules, run them through Spe_chaos.Harness's
   invariant oracles, shrink every violation to a minimal spe-schedule/1
   reproducer, and replay saved reproducers exactly. *)

let chaos_cmd =
  let module Schedule = Spe_chaos.Schedule in
  let module Harness = Spe_chaos.Harness in
  let module Campaign = Spe_chaos.Campaign in
  let campaign_arg =
    Arg.(
      value & opt int 0
      & info [ "campaign" ] ~docv:"N" ~doc:"Run N seeded fault schedules.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one saved spe-schedule/1 document instead of a campaign.")
  in
  let target_arg =
    Arg.(
      value
      & opt (enum [ ("links", `Links); ("scores", `Scores); ("both", `Both) ]) `Both
      & info [ "target" ] ~docv:"PIPELINE"
          ~doc:"Which pipeline(s) to torment: links, scores or both.")
  in
  let chaos_engine_arg =
    Arg.(
      value
      & opt (enum [ ("memory", `Memory); ("socket", `Socket); ("both", `Both) ]) `Both
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Which transport engine(s) to run on: memory, socket or both.")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Write each shrunk failing schedule to DIR/chaos-ID.json.")
  in
  let daemon_kill_arg =
    Arg.(
      value & flag
      & info [ "daemon-kill" ]
          ~doc:
            "Fault at whole-party granularity: fork a live spe-serve deployment per \
             seed, SIGKILL one provider daemon mid-burst, and check every client gets \
             a typed reply (never a hang), surviving results match the central oracle, \
             and the host keeps serving.  Uses --campaign N seeds and --target.")
  in
  let run campaign seed replay target engine out_dir daemon_kill =
    let read_file path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let requested_pipeline =
      match target with
      | `Links -> Some Schedule.Links
      | `Scores -> Some Schedule.Scores
      | `Both -> None
    in
    match replay with
    | Some _ when daemon_kill ->
      `Error (true, "--replay and --daemon-kill are mutually exclusive")
    | Some path -> (
      match Schedule.of_string (read_file path) with
      | exception Failure msg -> `Error (false, path ^ ": " ^ msg)
      | sched when Result.is_error (Schedule.check_replay_target sched ~requested:requested_pipeline) ->
        `Error
          ( false,
            path ^ ": "
            ^ Result.fold ~ok:(fun () -> "") ~error:Fun.id
                (Schedule.check_replay_target sched ~requested:requested_pipeline) )
      | sched -> (
        Printf.printf "replaying schedule %s: %s over %s, %d events (seed %d)\n%!"
          (Schedule.id sched)
          (Schedule.pipeline_name sched.Schedule.pipeline)
          (Schedule.engine_name sched.Schedule.engine)
          (List.length sched.Schedule.events)
          sched.Schedule.seed;
        match Harness.run sched with
        | Harness.Pass ->
          Printf.printf "replay: all invariant oracles passed\n";
          `Ok ()
        | Harness.Fail { oracle; detail } ->
          `Error (false, Printf.sprintf "invariant violation (%s): %s" oracle detail)))
    | None when daemon_kill ->
      let n = max campaign 1 in
      let pipelines =
        match requested_pipeline with
        | Some p -> [ p ]
        | None -> [ Schedule.Links; Schedule.Scores ]
      in
      let violations = ref 0 in
      List.iter
        (fun pipeline ->
          for s = seed to seed + n - 1 do
            Printf.printf "daemon-kill %s seed %d: %!" (Schedule.pipeline_name pipeline) s;
            match Spe_chaos.Daemon_fault.run ~seed:s pipeline with
            | Harness.Pass -> Printf.printf "pass\n%!"
            | Harness.Fail { oracle; detail } ->
              incr violations;
              Printf.printf "%s violation: %s\n%!" oracle detail
          done)
        pipelines;
      if !violations = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d invariant violation(s)" !violations)
    | None ->
      if campaign <= 0 then `Error (true, "use --campaign N or --replay FILE")
      else begin
        let pipelines =
          match target with
          | `Links -> [ Schedule.Links ]
          | `Scores -> [ Schedule.Scores ]
          | `Both -> [ Schedule.Links; Schedule.Scores ]
        in
        let engines =
          match engine with
          | `Memory -> [ Schedule.Memory ]
          | `Socket -> [ Schedule.Socket ]
          | `Both -> [ Schedule.Memory; Schedule.Socket ]
        in
        let targets =
          List.concat_map (fun p -> List.map (fun e -> (p, e)) engines) pipelines
        in
        let t0 = Unix.gettimeofday () in
        let summary =
          Campaign.run
            ~on_result:(fun s sched outcome ->
              match outcome with
              | Harness.Pass -> ()
              | Harness.Fail { oracle; _ } ->
                Printf.printf "seed %d (%s/%s, schedule %s): %s violation, shrinking...\n%!"
                  s
                  (Schedule.pipeline_name sched.Schedule.pipeline)
                  (Schedule.engine_name sched.Schedule.engine)
                  (Schedule.id sched) oracle)
            ~seeds:campaign ~seed ~targets ()
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        List.iter
          (fun (v : Campaign.violation) ->
            let Harness.{ oracle; detail } = v.Campaign.failure in
            Printf.printf
              "seed %d: %s violation shrunk to %d event(s) (schedule %s): %s\n" v.Campaign.seed
              oracle
              (List.length v.Campaign.shrunk.Schedule.events)
              (Schedule.id v.Campaign.shrunk)
              detail;
            match out_dir with
            | None -> ()
            | Some dir ->
              (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              let path =
                Filename.concat dir
                  (Printf.sprintf "chaos-%s.json" (Schedule.id v.Campaign.shrunk))
              in
              let oc = open_out path in
              output_string oc (Schedule.to_string v.Campaign.shrunk);
              close_out oc;
              Printf.printf "wrote %s\n" path)
          summary.Campaign.violations;
        Printf.printf "campaign: %d schedules in %.1f s, %d violation(s)\n"
          summary.Campaign.runs elapsed
          (List.length summary.Campaign.violations);
        if summary.Campaign.violations = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d invariant violation(s)"
                (List.length summary.Campaign.violations) )
      end
  in
  let term =
    Term.(
      ret
        (const run $ campaign_arg $ seed_arg $ replay_arg $ target_arg $ chaos_engine_arg
       $ out_dir_arg $ daemon_kill_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run deterministic fault campaigns against the sharded pipelines (drops, \
          delays, duplicates, dead links, killed workers) and shrink any invariant \
          violation to a replayable spe-schedule/1 file.")
    term

(* --- entry point ------------------------------------------------------------------ *)

let () =
  let doc = "privacy-preserving estimation of social influence (EDBT 2014)" in
  let info = Cmd.info "spe" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ generate_cmd; links_cmd; scores_cmd; rank_cmd; stream_cmd; campaign_cmd; serve_cmd;
            scrape_cmd; shutdown_cmd; chaos_cmd; privacy_cmd; costs_cmd; leakage_cmd;
            em_cmd; metrics_cmd; verify_cmd; shares_cmd ]))
