(* What every workload shares: the release record, the production
   socket engine driven stage by stage and timed from outside, the
   simulated engine the exact counts and results are checked against,
   the closed request loop with its probe slices, and the Frame /
   Paillier calibration calls. *)

module Plan = Spe_core.Plan
module Session = Spe_mpc.Session
module Wire = Spe_mpc.Wire
module Endpoint = Spe_net.Endpoint
module Net_wire = Spe_net.Net_wire
module Trace = Spe_obs.Trace
module Metrics = Spe_obs.Metrics

(* One published result as the benchmark saw it.  Times are seconds. *)
type release = {
  traced : bool;
  latency_s : float;  (** Infinity for a failed release. *)
  ok : bool;
  rounds : int;  (** NR. *)
  payload : int;  (** MS / 8. *)
  wire : int;  (** Transport bytes, framing and control frames included. *)
  sessions : int;
  updates : int;
      (** Stream arrivals this release ingested; a batch release counts
          as one update. *)
  plan_s : float;
  stage_s : float;
  result_s : float;
  ingest_s : float;  (** Building the epoch input, snapshot included. *)
  snapshot_s : float;
  compute_s : float;  (** Sum of the parties' compute spans (traced only). *)
  recomputed : int;  (** Counter groups recomputed. *)
  groups : int;  (** Counter groups in total. *)
  dirty_pairs : int;
  slice : int;  (** Probe slices taken before the release started. *)
}

let blank =
  {
    traced = false;
    latency_s = 0.;
    ok = true;
    rounds = 0;
    payload = 0;
    wire = 0;
    sessions = 0;
    updates = 1;
    plan_s = 0.;
    stage_s = 0.;
    result_s = 0.;
    ingest_s = 0.;
    snapshot_s = 0.;
    compute_s = 0.;
    recomputed = 1;
    groups = 1;
    dirty_pairs = 0;
    slice = 0;
  }

let failed ~traced = { blank with traced; latency_s = infinity; ok = false }

(* Errors are reported once each on stderr and counted by the caller;
   the run carries on so every release is attempted. *)
let complain fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* Compute-heavy rounds must never trip the round timer. *)
let endpoint_config = { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }

(* At most two sessions in flight on the one reactor thread. *)
let workers = 2

type stages_run = {
  s_stage : float;
  s_rounds : int;
  s_payload : int;
  s_wire : int;
  s_sessions : int;
  s_traces : (string * int * Trace.t) list;
      (** Traced runs: each session's label, party count and trace. *)
}

(* Drive a plan's stages in order on [Endpoint.run_sessions_socket],
   timing each call.  Untraced runs hand the engine disabled traces;
   traced runs keep the engine's traces for [compute_of] to read once
   the release's latency is taken. *)
let run_stages ~traced (stages : Plan.stage list) =
  let stage_s = ref 0. and rounds = ref 0 and payload = ref 0 and wire = ref 0 in
  let sessions = ref 0 and kept = ref [] in
  List.iter
    (fun (stage : Plan.stage) ->
      let group = stage.Plan.sessions in
      let n = Array.length group in
      let traces = Array.init n (fun _ -> if traced then Trace.create () else Trace.disabled ()) in
      let results, dt =
        Measure.time (fun () ->
            Endpoint.run_sessions_socket ~config:endpoint_config ~workers ~traces group)
      in
      stage_s := !stage_s +. dt;
      sessions := !sessions + n;
      Array.iteri
        (fun i ((), (r : Endpoint.result)) ->
          let sent = Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) r.Endpoint.outcomes in
          rounds := !rounds + r.Endpoint.outcomes.(0).Endpoint.rounds;
          payload := !payload + (Net_wire.totals sent).Net_wire.payload_bytes;
          wire := !wire + r.Endpoint.transport_bytes;
          if traced then
            kept := (stage.Plan.label, Array.length group.(i).Session.parties, traces.(i)) :: !kept)
        results)
    stages;
  {
    s_stage = !stage_s;
    s_rounds = !rounds;
    s_payload = !payload;
    s_wire = !wire;
    s_sessions = !sessions;
    s_traces = !kept;
  }

(* The parties' compute time, from the traced sessions' compute spans. *)
let compute_of (s : stages_run) =
  Measure.sum_f
    (fun (protocol, parties, trace) ->
      let rep = Metrics.of_trace ~protocol ~engine:"socket" ~parties trace in
      Measure.sum_f (fun c -> c.Metrics.total_s) rep.Metrics.compute)
    s.s_traces

(* The simulated engine's exact counts for a plan: NR, MS / 8, and the
   largest single message in bytes (the codec calibration size). *)
type counts = { rounds : int; payload : int; largest : int }

let sim_run (plan : 'r Plan.t) =
  let w = Wire.create () in
  let r = Session.run (Plan.to_session plan) ~wire:w in
  let st = Wire.stats w in
  if st.Wire.bits mod 8 <> 0 then failwith "simulated wire charged a non-byte payload";
  let largest =
    List.fold_left (fun acc (m : Wire.message) -> max acc (m.Wire.bits / 8)) 0 (Wire.messages w)
  in
  (r, { rounds = st.Wire.rounds; payload = st.Wire.bits / 8; largest })

(* Whether a socket run's exact counts agree with the simulated
   engine's, complaining when not. *)
let counts_agree ~what (c : counts) (s : stages_run) =
  s.s_rounds = c.rounds && s.s_payload = c.payload
  ||
  (complain "%s: exact-count mismatch: socket NR %d, MS/8 %d; simulated NR %d, MS/8 %d" what
     s.s_rounds s.s_payload c.rounds c.payload;
   false)

let release_of_stages ~traced ~latency_s ~plan_s ~result_s (s : stages_run) =
  {
    blank with
    traced;
    latency_s;
    rounds = s.s_rounds;
    payload = s.s_payload;
    wire = s.s_wire;
    sessions = s.s_sessions;
    plan_s;
    stage_s = s.s_stage;
    result_s;
    compute_s = (if traced then compute_of s else 0.);
  }

(* One set-up repetition, after a probe slice: [f]'s result, its
   seconds and the slice count for its normalisation. *)
let timed_setup ~probe f =
  ignore (Probe.slice probe);
  let at = probe.Probe.count in
  let r, dt = Measure.time f in
  (r, (dt, at))

(* --- the closed loop ------------------------------------------------------ *)

(* Every run has at least this many releases, so its 90th percentile
   has at least ten samples beyond it. *)
let min_releases = 100

type loop = {
  releases : release list;  (** In order. *)
  wall_s : float;  (** Timed wall: probe slices and checks left out. *)
  cpu_s : float;  (** This process's CPU over the loop. *)
}

(* One request at a time, the next sent when the previous release is
   out, until [seconds] of timed wall and [min_releases] releases have
   passed and the workload stands at a [cycle] boundary — the end of its
   plan-seed rotation or stream pass — so every run measures whole
   cycles.  A traced run alternates untraced and traced cycles and ends
   after an even number, so the pair gives the tracing overhead on the
   same releases.  A probe slice runs before every release.  [next
   ~traced] returns the release and the seconds it spent after its
   latency was taken (checks, trace reading), which are left out of the
   timed wall like the probe slices. *)
let closed_loop ~probe ~seconds ~trace ~(cycle : unit -> bool)
    (next : traced:bool -> release * float) =
  ignore (Probe.slice probe);
  let t0 = Measure.now () and c0 = Measure.cpu_self_s () in
  let excluded = ref 0. in
  let rels = ref [] and n = ref 0 and cycles = ref 0 in
  let work () = Measure.now () -. t0 -. !excluded in
  let rec go () =
    let boundary = !n > 0 && cycle () in
    if boundary then incr cycles;
    let finished =
      boundary && work () >= seconds && !n >= min_releases && ((not trace) || !cycles mod 2 = 0)
    in
    if not finished then begin
      excluded := !excluded +. Probe.slice probe;
      let at = probe.Probe.count in
      let r, ex = next ~traced:(trace && !cycles mod 2 = 1) in
      excluded := !excluded +. ex;
      rels := { r with slice = at } :: !rels;
      incr n;
      go ()
    end
  in
  go ();
  let wall_s = work () and cpu_s = Measure.cpu_self_s () -. c0 in
  ignore (Probe.slice probe);
  { releases = List.rev !rels; wall_s; cpu_s }

(* --- one run of a workload ------------------------------------------------ *)

type gc = { alloc_mb : float; major : float; minor : float }

type run = {
  setups : (float * int) list;
      (** Seconds per set-up repetition, and the probe's slice count
          when it started. *)
  loop : loop;
  peak_mb : float;  (** Peak resident memory of the processes doing protocol work. *)
  modulus : int;  (** Share modulus, for the codec calibration frame. *)
  largest_payload : int;  (** Largest single message, bytes. *)
  ciphertexts_per_release : float;
  gc : gc option;  (** Per release, from a fixed GC pass (traced runs). *)
  layers : (string * float) list;  (** Workload-specific per-layer figures. *)
}

(* The OCaml runtime's allocation and collections per release over
   [count] untraced releases, run in a forked child of a process whose
   history so far does not depend on timing (call it before the timed
   loop), from a compacted heap: the figures depend on the releases
   alone and repeat exactly. *)
let gc_pass ~count (next : traced:bool -> release * float) =
  Measure.in_child (fun () ->
      Gc.compact ();
      let words () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let s0 = Gc.quick_stat () and w0 = words () in
      for _ = 1 to count do
        ignore (next ~traced:false)
      done;
      let s1 = Gc.quick_stat () and w1 = words () in
      let per x = x /. float_of_int count in
      {
        alloc_mb = per ((w1 -. w0) *. float_of_int (Sys.word_size / 8) /. 1e6);
        major = per (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
        minor = per (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
      })

(* --- calibration calls ---------------------------------------------------- *)

(* ns per frame byte through [Frame.encode] and [Frame.decode] on one
   Data frame of [bytes] payload bytes, as residues mod [modulus]. *)
let codec_calibration ~modulus ~bytes =
  let count = max 1 (bytes / Spe_mpc.Codec.residue_bytes ~modulus) in
  let frame =
    Spe_net.Frame.Data
      {
        round = 1;
        seq = 0;
        src = Wire.Host;
        dst = Wire.Provider 0;
        payload =
          Spe_mpc.Runtime.Ints { modulus; values = Array.init count (fun i -> i * 7919 mod modulus) };
      }
  in
  let body = Spe_net.Frame.encode frame in
  if Spe_net.Frame.decode body <> frame then failwith "Frame.decode does not invert Frame.encode";
  let len = float_of_int (Bytes.length body) in
  let enc = Measure.per_call (fun () -> ignore (Spe_net.Frame.encode frame)) in
  let dec = Measure.per_call (fun () -> ignore (Spe_net.Frame.decode body)) in
  (1e9 *. enc /. len, 1e9 *. dec /. len)

(* Paillier at [bits] through the calls Protocol 6 makes: key
   generation (ms, median over three keys from the fixed plan seeds),
   one encryption and one decryption (us each). *)
let crypto_calibration ~bits =
  let module P = Spe_crypto.Paillier in
  let module Nat = Spe_bignum.Nat in
  let keys =
    List.init 3 (fun i ->
        Measure.time (fun () -> P.generate (Spe_rng.State.create ~seed:(Inputs.plan_seed i) ()) ~bits))
  in
  let kp = fst (List.hd keys) in
  let st = Spe_rng.State.create ~seed:7 () in
  let encrypt = P.encryptor st kp.P.public and decrypt = P.decryptor kp.P.secret in
  let plains = Array.init 64 (fun i -> Nat.of_int (i * 977)) in
  let cts = Array.map encrypt plains in
  if not (Array.for_all2 (fun c m -> Nat.equal (decrypt c) m) cts plains) then
    failwith "Paillier decryption does not invert encryption";
  let k = ref 0 in
  let enc =
    Measure.per_call (fun () ->
        ignore (encrypt plains.(!k land 63));
        incr k)
  in
  let dec =
    Measure.per_call (fun () ->
        ignore (decrypt cts.(!k land 63));
        incr k)
  in
  (1000. *. Measure.median (List.map snd keys), 1e6 *. enc, 1e6 *. dec)
