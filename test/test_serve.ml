(* Tests for the serve subsystem: the shared address parser (clean
   errors, never a raw Unix_error), the spe-serve/2 frame codec
   (round-trip + strict rejection, like the inner Frame tests), the
   scheduler's typed admission control, the metrics scrape endpoint,
   and the live-deployment integration paths — daemons in-process over
   a unix-domain roster serving sequential and bursty job loads
   bit-identically to the central Driver oracle with exactly one Hello
   exchange per mesh connection, and the whole-party kill campaign. *)

module Addr = Spe_serve.Addr
module Proto = Spe_serve.Serve_proto
module Scheduler = Spe_serve.Scheduler
module Job = Spe_serve.Job
module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client
module Transport = Spe_net.Transport
module Schedule = Spe_chaos.Schedule
module Harness = Spe_chaos.Harness
module Driver = Spe_core.Driver
module Protocol4 = Spe_core.Protocol4
module State = Spe_rng.State
module Json = Spe_obs.Obs_io.Json

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* --- Addr ------------------------------------------------------------------ *)

let test_addr_parse () =
  (match Addr.parse "unix:/tmp/spe.sock" with
  | Ok (Transport.Socket.Unix_domain p) -> check Alcotest.string "unix path" "/tmp/spe.sock" p
  | _ -> Alcotest.fail "unix address did not parse");
  (match Addr.parse "127.0.0.1:9000" with
  | Ok (Transport.Socket.Tcp (h, p)) ->
    check Alcotest.string "host" "127.0.0.1" h;
    check Alcotest.int "port" 9000 p
  | _ -> Alcotest.fail "tcp address did not parse");
  (match Addr.parse "localhost:80" with
  | Ok (Transport.Socket.Tcp (h, _)) -> check Alcotest.string "localhost folds" "127.0.0.1" h
  | _ -> Alcotest.fail "localhost did not parse");
  List.iter
    (fun bad ->
      match Addr.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error msg -> checkb (bad ^ " has a message") true (String.length msg > 0))
    [ ""; "no-colon"; "host:"; "host:notaport"; "host:70000"; "host:-1"; "unix:"; "nosuchhostname.invalid:80" ]

let test_addr_party () =
  (match Addr.party_of_string "H" with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "H should be party 0");
  (match Addr.party_of_string "P3" with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "P3 should be party 3");
  List.iter
    (fun bad ->
      match Addr.party_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [ ""; "P0"; "P"; "Q2"; "H2" ];
  (match Addr.party_of_string "p1" with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "party names are case-insensitive");
  check Alcotest.string "party 0 name" "H" (Addr.party_name 0);
  check Alcotest.string "party 2 name" "P2" (Addr.party_name 2)

let test_addr_roster () =
  let spec = "P2=unix:/tmp/p2.sock,H=127.0.0.1:9000,P1=127.0.0.1:9001" in
  (match Addr.roster_of_string spec with
  | Error msg -> Alcotest.fail msg
  | Ok roster ->
    check Alcotest.int "roster size" 3 (Array.length roster);
    check Alcotest.string "H first" "127.0.0.1:9000" (Addr.to_string roster.(0));
    check Alcotest.string "P2 last" "unix:/tmp/p2.sock" (Addr.to_string roster.(2));
    (* Round-trip through the printer. *)
    match Addr.roster_of_string (Addr.roster_to_string roster) with
    | Ok again -> checkb "round-trips" true (again = roster)
    | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Addr.roster_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [
      "";
      "H=127.0.0.1:9000";  (* no providers *)
      "H=127.0.0.1:9000,P2=127.0.0.1:9002";  (* gap: P1 missing *)
      "H=127.0.0.1:9000,P1=127.0.0.1:9001,P1=127.0.0.1:9002";  (* duplicate *)
      "P1=127.0.0.1:9001,P2=127.0.0.1:9002";  (* no host *)
      "H=127.0.0.1:9000,P1=nonsense";  (* bad address *)
    ]

(* --- the spe-serve/2 codec -------------------------------------------------- *)

let sample_spec =
  {
    Proto.pipeline = Proto.Links;
    seed = 42;
    shards = 3;
    h = 2;
    c_factor = 2.5;
    modulus_bits = 40;
    tau = 6;
    key_bits = 128;
    pack_slots = 4;
    epoch_ticks = 25;
    window = 6;
    epochs = 5;
    rate = 0.5;
    burstiness = 0.375;
    jitter = 2;
    damping = 0.875;
    iterations = 12;
    fbits = 18;
    rank_degree = true;
  }

let roundtrip frame = Proto.decode (Proto.encode frame)

let test_proto_roundtrip () =
  let frames =
    [
      Proto.Hello { role = Proto.Party 0; version = Proto.version; workload = 0x123456789 };
      Proto.Hello { role = Proto.Client; version = Proto.version; workload = 0 };
      Proto.Session_frame { sid = 65537; body = Bytes.of_string "\x00\x01\xff" };
      Proto.Job_submit { job = 7; spec = sample_spec };
      Proto.Job_submit
        { job = 8; spec = { sample_spec with Proto.pipeline = Proto.Scores } };
      Proto.Job_submit
        { job = 11; spec = { sample_spec with Proto.pipeline = Proto.Stream } };
      Proto.Job_submit
        { job = 13; spec = { sample_spec with Proto.pipeline = Proto.Rank } };
      Proto.Job_result
        {
          job = 13;
          reply = Proto.Rank_summary { ranks_fx = [| 0; 123456; 1 lsl 20 |]; fbits = 20 };
        };
      Proto.Job_result
        { job = 7; reply = Proto.Strengths [ ((0, 1), 0.5); ((3, 2), 0.125) ] };
      Proto.Job_result { job = 9; reply = Proto.Scores [| 1.5; 0.0; nan; 3.25 |] };
      Proto.Job_result
        {
          job = 12;
          reply =
            Proto.Stream_summary
              {
                digests = [| 0x1fff_ffff_ffff_ffff; 0; 42 |];
                recomputed = [| 18; 0; 3 |];
                strengths = [ ((1, 0), 0.25); ((4, 5), 0.75) ];
              };
        };
      Proto.Job_result
        {
          job = 10;
          reply = Proto.Failed { kind = Proto.Peer_down; detail = "P2 died" };
        };
      Proto.Busy { job = 3; queued = 64; max_queue = 64 };
      Proto.Job_cancel { job = 5 };
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun frame ->
      let back = roundtrip frame in
      (* NaN-tolerant structural equality: compare re-encodings, which
         are bit-exact for floats. *)
      checkb "frame round-trips" true (Proto.encode back = Proto.encode frame))
    frames

let test_proto_rejects_malformed () =
  let expect_invalid what bytes =
    match Proto.decode bytes with
    | _ -> Alcotest.fail (what ^ " should have been rejected")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "empty frame" (Bytes.create 0);
  expect_invalid "unknown tag" (Bytes.make 4 '\x00');
  let good = Proto.encode (Proto.Job_cancel { job = 5 }) in
  let trailing = Bytes.extend good 0 1 in
  expect_invalid "trailing bytes" trailing;
  let truncated = Bytes.sub good 0 (Bytes.length good - 1) in
  expect_invalid "truncated frame" truncated;
  (* An inner-protocol frame (tags 0-4) must never decode as a serve
     frame. *)
  expect_invalid "inner frame tag" (Bytes.make 8 '\x02')

(* --- scheduler admission ---------------------------------------------------- *)

let test_scheduler_admission () =
  let s = Scheduler.create ~max_queue:2 ~max_active:1 () in
  checkb "1st accepted" true (Scheduler.submit s 1 = Scheduler.Accepted);
  checkb "2nd accepted" true (Scheduler.submit s 2 = Scheduler.Accepted);
  (match Scheduler.submit s 3 with
  | Scheduler.Busy { queued = 2; max_queue = 2 } -> ()
  | _ -> Alcotest.fail "3rd submit should be Busy {queued=2}");
  check Alcotest.int "depth" 2 (Scheduler.depth s);
  (* A worker claims one; a queue slot frees up. *)
  (match Scheduler.take s with
  | Some 1 -> ()
  | _ -> Alcotest.fail "take should yield the first job");
  check Alcotest.int "active" 1 (Scheduler.active s);
  checkb "refill accepted" true (Scheduler.submit s 4 = Scheduler.Accepted);
  Scheduler.finish s;
  check Alcotest.int "active after finish" 0 (Scheduler.active s);
  let drained = Scheduler.stop s in
  checkb "stop returns the queue in order" true (drained = [ 2; 4 ]);
  checkb "take after stop" true (Scheduler.take s = None);
  (match Scheduler.submit s 5 with
  | Scheduler.Busy _ -> ()
  | _ -> Alcotest.fail "submit after stop should be Busy");
  let st = Scheduler.stats s in
  check Alcotest.int "submitted" 3 st.Scheduler.submitted;
  check Alcotest.int "rejected" 2 st.Scheduler.rejected;
  check Alcotest.int "completed" 1 st.Scheduler.completed

(* --- job validation --------------------------------------------------------- *)

(* The daemon-side twin of the CLI's typed usage errors (the --shards 0
   family): every flag the CLI bounces — zero shards, negative epoch or
   window, out-of-range modulus bits, bad rank parameters — must also
   bounce off Job.validate, so a hand-rolled client cannot smuggle a
   bad spec past the daemons. *)
let test_job_validate () =
  let graph, logs = Util.workload ~seed:31 ~n:10 ~edges:24 ~actions:5 ~m:2 in
  let w = { Job.graph; logs } in
  let ok name spec =
    match Job.validate spec w with
    | Ok () -> ()
    | Error msg -> Alcotest.fail (Printf.sprintf "%s should validate: %s" name msg)
  in
  let bad name spec =
    match Job.validate spec w with
    | Ok () -> Alcotest.fail (Printf.sprintf "%s should be rejected" name)
    | Error msg -> checkb (name ^ " has a detail") true (String.length msg > 0)
  in
  ok "default links" Proto.default_spec;
  (match Job.validate Proto.default_spec { Job.graph; logs = [| logs.(0) |] } with
  | Ok () -> Alcotest.fail "single provider should be rejected"
  | Error _ -> ());
  bad "shards 0" { Proto.default_spec with Proto.shards = 0 };
  bad "shards -3" { Proto.default_spec with Proto.shards = -3 };
  bad "modulus_bits 1" { Proto.default_spec with Proto.modulus_bits = 1 };
  bad "modulus_bits 62" { Proto.default_spec with Proto.modulus_bits = 62 };
  bad "links h 0" { Proto.default_spec with Proto.h = 0 };
  bad "links c_factor 0.5" { Proto.default_spec with Proto.c_factor = 0.5 };
  let scores = { Proto.default_spec with Proto.pipeline = Proto.Scores } in
  ok "default scores" scores;
  bad "scores tau 0" { scores with Proto.tau = 0 };
  bad "scores key_bits 8" { scores with Proto.key_bits = 8 };
  bad "scores pack_slots 0" { scores with Proto.pack_slots = 0 };
  let stream =
    {
      Proto.default_spec with
      Proto.pipeline = Proto.Stream;
      epoch_ticks = 25;
      epochs = 3;
      rate = 0.6;
    }
  in
  ok "valid stream" stream;
  bad "stream epoch_ticks 0" { stream with Proto.epoch_ticks = 0 };
  bad "stream epoch_ticks -1" { stream with Proto.epoch_ticks = -1 };
  bad "stream window -1" { stream with Proto.window = -1 };
  bad "stream epochs 0" { stream with Proto.epochs = 0 };
  bad "stream rate 0" { stream with Proto.rate = 0. };
  bad "stream burstiness 1" { stream with Proto.burstiness = 1. };
  bad "stream jitter -2" { stream with Proto.jitter = -2 };
  let rank = { Proto.default_spec with Proto.pipeline = Proto.Rank } in
  ok "default rank" rank;
  bad "rank damping 1" { rank with Proto.damping = 1. };
  bad "rank damping -0.1" { rank with Proto.damping = -0.1 };
  bad "rank iterations -1" { rank with Proto.iterations = -1 };
  bad "rank fbits 3" { rank with Proto.fbits = 3 };
  bad "rank fbits 31" { rank with Proto.fbits = 31 };
  bad "rank fbits = modulus_bits" { rank with Proto.fbits = 20; modulus_bits = 20 }

(* --- live deployments ------------------------------------------------------- *)

(* A small links workload: 3 providers like the chaos campaigns, so the
   mesh is a real 4-daemon clique (shared with test_rank via Util). *)
let links_workload = Util.links_workload

let links_spec ~pseed ~shards =
  {
    Proto.default_spec with
    Proto.pipeline = Proto.Links;
    seed = pseed;
    shards;
    h = 2;
    c_factor = 2.;
    modulus_bits = 40;
  }

let links_oracle ~pseed ~graph ~logs =
  let r =
    Driver.link_strengths_exclusive (State.create ~seed:pseed ()) ~graph ~logs
      (Protocol4.default_config ~h:2)
  in
  r.Driver.strengths

(* Start one in-process daemon per party over a temp unix-domain
   roster, run [f client daemons roster], then shut everything down
   (shared with test_rank via Util). *)
let with_deployment = Util.with_deployment
let gauge = Util.gauge

(* Satellite: N >= 3 sequential sharded sessions over one connection
   set, bit-identical to the central Driver oracle, with exactly one
   Hello exchange per mesh connection in the accounting. *)
let test_daemon_sequential_jobs () =
  with_deployment (fun client daemons _roster ~graph ~logs ->
      let m = Array.length logs in
      let pseed = links_workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      for _round = 1 to 3 do
        match
          Client.run_jobs client
            [ links_spec ~pseed ~shards:2 ]
            ~deadline:(Unix.gettimeofday () +. 60.)
        with
        | [ Client.Result reply ] ->
          checkb "bit-identical to the central oracle" true (reply = expected)
        | _ -> Alcotest.fail "job did not complete"
      done;
      (* One Hello exchange per mesh connection, none per job: every
         daemon received exactly one Hello from each of its m peers
         (client hellos are counted separately), no matter how many
         sessions multiplexed over the mesh. *)
      for party = 0 to m do
        check Alcotest.int
          (Printf.sprintf "daemon %s hellos" (Addr.party_name party))
          m
          (gauge daemons party "hellos_received")
      done;
      checkb "H ran sessions" true (gauge daemons 0 "sessions_run" > 0);
      check Alcotest.int "H completed all jobs" 3 (gauge daemons 0 "jobs_completed"))

(* Acceptance: a 50-job concurrent burst under admission control, every
   reply bit-identical. *)
let test_daemon_burst_50 () =
  let workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 } in
  with_deployment ~workload ~max_sessions:4 ~max_queue:64
    (fun client daemons _roster ~graph ~logs ->
      let pseed = workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      let jobs = 50 in
      let outcomes =
        Client.run_jobs client
          (List.init jobs (fun _ -> links_spec ~pseed ~shards:2))
          ~deadline:(Unix.gettimeofday () +. 120.)
      in
      check Alcotest.int "all jobs answered" jobs (List.length outcomes);
      List.iteri
        (fun i outcome ->
          match outcome with
          | Client.Result reply ->
            checkb (Printf.sprintf "job %d bit-identical" i) true (reply = expected)
          | Client.Busy _ -> Alcotest.fail (Printf.sprintf "job %d refused from a 64-slot queue" i))
        outcomes;
      check Alcotest.int "H completed all" jobs (gauge daemons 0 "jobs_completed");
      checkb "admission never tripped" true (gauge daemons 0 "busy_rejected" = 0))

(* Backpressure: a tiny queue must refuse part of a burst with the
   typed Busy reply, and what it does admit still completes correctly. *)
let test_daemon_busy_backpressure () =
  let workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 } in
  with_deployment ~workload ~max_sessions:1 ~max_queue:1
    (fun client daemons _roster ~graph ~logs ->
      let pseed = workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      let jobs = 8 in
      let outcomes =
        Client.run_jobs client
          (List.init jobs (fun _ -> links_spec ~pseed ~shards:2))
          ~deadline:(Unix.gettimeofday () +. 120.)
      in
      let busy, completed =
        List.partition (function Client.Busy _ -> true | _ -> false) outcomes
      in
      checkb "some jobs were refused" true (busy <> []);
      checkb "some jobs completed" true (completed <> []);
      List.iter
        (function
          | Client.Result reply ->
            checkb "admitted jobs still bit-identical" true (reply = expected)
          | Client.Busy { queued; max_queue } ->
            check Alcotest.int "busy names the bound" 1 max_queue;
            checkb "busy names the depth" true (queued >= 0))
        outcomes;
      let st = gauge daemons 0 "busy_rejected" in
      check Alcotest.int "every refusal counted" (List.length busy) st)

(* The scrape endpoint: live gauges + cumulative report, over both the
   raw and the HTTP framing. *)
let test_daemon_scrape () =
  let dir = Filename.temp_file "spe-scrape" "" in
  Unix.unlink dir;
  let maddr = Transport.Socket.Unix_domain dir in
  with_deployment ~metrics_addr:maddr (fun client _daemons _roster ~graph ~logs ->
      let pseed = links_workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      (match
         Client.run_jobs client
           [ links_spec ~pseed ~shards:2 ]
           ~deadline:(Unix.gettimeofday () +. 60.)
       with
      | [ Client.Result reply ] -> checkb "job ok" true (reply = expected)
      | _ -> Alcotest.fail "job did not complete");
      let doc = Client.scrape maddr in
      let json = Json.of_string doc in
      (match Json.member "version" json with
      | Json.String "spe-serve-metrics/1" -> ()
      | _ -> Alcotest.fail "scrape document version");
      (match Json.member "party" json with
      | Json.String "H" -> ()
      | _ -> Alcotest.fail "scrape document party");
      (match Json.member "gauges" json with
      | Json.Obj gauges ->
        List.iter
          (fun key ->
            match List.assoc_opt key gauges with
            | Some (Json.Int _) -> ()
            | _ -> Alcotest.fail (Printf.sprintf "gauge %s missing from scrape" key))
          [
            "queue_depth"; "active_jobs"; "active_sessions"; "jobs_submitted";
            "jobs_completed"; "busy_rejected"; "hellos_sent"; "hellos_received";
            "reactor_iterations"; "reactor_timer_fires"; "reactor_ready_depth";
            "reactor_pending_timers";
          ];
        (match List.assoc_opt "jobs_completed" gauges with
        | Some (Json.Int n) -> checkb "completed gauge counts" true (n >= 1)
        | _ -> Alcotest.fail "jobs_completed gauge");
        (* The daemon ran a whole job on its loop thread by now, so the
           reactor liveness gauges must be moving. *)
        (match List.assoc_opt "reactor_iterations" gauges with
        | Some (Json.Int n) -> checkb "reactor loop iterated" true (n > 0)
        | _ -> Alcotest.fail "reactor_iterations gauge")
      | _ -> Alcotest.fail "scrape gauges object");
      (* Tracing was on, so the cumulative spe-metrics/2 report is
         attached. *)
      (match Json.member "report" json with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "scrape report should be a merged spe-metrics/2 document");
      (* The same endpoint speaks HTTP when asked with a GET line. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Addr.sockaddr maddr);
      let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write fd req 0 (Bytes.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Unix.close fd;
      let http = Buffer.contents buf in
      checkb "HTTP status line" true
        (String.length http > 15 && String.sub http 0 15 = "HTTP/1.0 200 OK");
      checkb "HTTP body carries the document" true
        (let marker = "spe-serve-metrics/1" in
         let rec find i =
           if i + String.length marker > String.length http then false
           else String.sub http i (String.length marker) = marker || find (i + 1)
         in
         find 0))

(* Satellite: --pack-slots travels in the job spec now (PR 8's daemons
   refused it), and a packed scores job over the mesh stays
   bit-identical to the central oracle with the same packing. *)
let test_daemon_scores_pack_slots () =
  with_deployment (fun client _daemons _roster ~graph ~logs ->
      let pseed = links_workload.Schedule.wseed + 3 in
      let module Protocol6 = Spe_core.Protocol6 in
      let config =
        { Protocol6.default_config with Protocol6.key_bits = 128; pack_slots = 4 }
      in
      let r =
        Driver.user_scores_exclusive (State.create ~seed:pseed ()) ~graph ~logs ~tau:2
          ~modulus:(1 lsl 20) config
      in
      let expected = Proto.Scores r.Driver.scores in
      let spec =
        {
          Proto.default_spec with
          Proto.pipeline = Proto.Scores;
          seed = pseed;
          shards = 2;
          modulus_bits = 20;
          tau = 2;
          key_bits = 128;
          pack_slots = 4;
        }
      in
      match Client.run_jobs client [ spec ] ~deadline:(Unix.gettimeofday () +. 120.) with
      | [ Client.Result reply ] ->
        checkb "packed scores job bit-identical to the central oracle" true
          (reply = expected)
      | _ -> Alcotest.fail "packed scores job did not complete")

(* Tentpole: a stream job over the mesh.  Every daemon replays the
   identical seeded ingestion and runs the concatenated epoch-delta
   stages; the reply must be bit-identical to building and running the
   same plan locally, and the per-epoch gauges must advance. *)
let test_daemon_stream_job () =
  with_deployment (fun client daemons _roster ~graph ~logs ->
      let module Plan = Spe_core.Plan in
      let pseed = links_workload.Schedule.wseed + 5 in
      let epochs = 4 in
      let spec =
        {
          Proto.default_spec with
          Proto.pipeline = Proto.Stream;
          seed = pseed;
          h = 2;
          c_factor = 2.;
          modulus_bits = 40;
          epoch_ticks = 25;
          window = 6;
          epochs;
          rate = 0.5;
          burstiness = 0.4;
          jitter = 2;
        }
      in
      (* The local oracle: the identical plan the daemons rebuild, run
         on the in-process memory engine (delta releases are
         engine-independent — pinned by the spe_delta suite). *)
      let expected =
        let planned = Job.build spec { Job.graph; logs } in
        List.iter
          (fun (stage : Plan.stage) ->
            ignore (Spe_net.Endpoint.run_sessions_memory ~workers:2 stage.Plan.sessions))
          (Job.stages planned);
        Job.reply_of planned
      in
      (match expected with
      | Proto.Stream_summary { digests; recomputed; strengths } ->
        check Alcotest.int "oracle released every epoch" epochs (Array.length digests);
        checkb "first epoch recomputed something" true (recomputed.(0) > 0);
        checkb "final strengths non-empty" true (strengths <> [])
      | _ -> Alcotest.fail "stream oracle reply shape");
      (match Client.run_jobs client [ spec ] ~deadline:(Unix.gettimeofday () +. 120.) with
      | [ Client.Result reply ] ->
        checkb "stream job bit-identical to the local plan" true (reply = expected)
      | _ -> Alcotest.fail "stream job did not complete");
      (* Per-epoch gauges: every daemon walks every stage, so H saw all
         the releases. *)
      check Alcotest.int "H released every epoch" epochs (gauge daemons 0 "epochs_released");
      check Alcotest.int "H tracked the last epoch" (epochs - 1) (gauge daemons 0 "last_epoch");
      checkb "H ran epoch recompute sessions" true (gauge daemons 0 "epoch_sessions_run" > 0))

(* Whole-party chaos: SIGKILL one provider daemon mid-burst; every
   client reply stays typed, survivors match the oracle, the host keeps
   serving, and every forked daemon is reaped. *)
let test_daemon_kill_campaign () =
  match Spe_chaos.Daemon_fault.run ~jobs:3 ~seed:1 Schedule.Links with
  | Harness.Pass -> ()
  | Harness.Fail { oracle; detail } ->
    Alcotest.fail (Printf.sprintf "%s violation: %s" oracle detail)

(* --- shutdown ------------------------------------------------------------ *)

(* With no daemon listening, no seat may count as stopped: each is
   reported unreachable, by name and address. *)
let test_shutdown_absent_roster () =
  let roster = Transport.Socket.temp_unix_addresses ~m:3 in
  let seats = Client.shutdown_seats ~timeout:1. roster in
  Array.iteri
    (fun party seat ->
      match seat with
      | Client.Unreachable msg ->
        checkb "message names the address" true
          (String.starts_with ~prefix:("cannot connect to " ^ Addr.to_string roster.(party)) msg)
      | Client.Stopped | Client.Timed_out ->
        Alcotest.failf "seat %d counted as reached" party)
    seats;
  check Alcotest.(list int) "every seat failed" [ 0; 1; 2 ]
    (Client.shutdown_roster ~timeout:1. roster)

let () =
  Alcotest.run "serve"
    [
      ( "addr",
        [
          Alcotest.test_case "parses tcp and unix addresses" `Quick test_addr_parse;
          Alcotest.test_case "parses party names" `Quick test_addr_party;
          Alcotest.test_case "parses rosters" `Quick test_addr_roster;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frames round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects malformed frames" `Quick
            test_proto_rejects_malformed;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "absent roster is not stopped" `Quick test_shutdown_absent_roster;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "typed admission control" `Quick test_scheduler_admission ] );
      ( "job",
        [ Alcotest.test_case "spec validation rejects bad flags" `Quick test_job_validate ] );
      ( "deployment",
        [
          Alcotest.test_case "sequential jobs, one hello per peer" `Slow
            test_daemon_sequential_jobs;
          Alcotest.test_case "50-job burst bit-identical" `Slow test_daemon_burst_50;
          Alcotest.test_case "busy backpressure" `Slow test_daemon_busy_backpressure;
          Alcotest.test_case "metrics scrape" `Slow test_daemon_scrape;
          Alcotest.test_case "packed scores job" `Slow test_daemon_scores_pack_slots;
          Alcotest.test_case "stream job bit-identical" `Slow test_daemon_stream_job;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "daemon kill stays typed" `Slow test_daemon_kill_campaign;
        ] );
    ]
