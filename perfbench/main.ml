(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--nproc N] [--profile P] [--cpu C]

   runs one workload for S seconds of timed wall on inputs generated
   from seed N, checks every release against its oracle, and prints as
   its last line one JSON object: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  Every time is normalised by
   the machine-speed probe (see probe.ml) and printed beside its raw
   value.  It exits 1 when any release failed or mismatched. *)

open Engine

let workloads =
  [
    ("links-bulk", Batch.links_bulk);
    ("scores-packed", Batch.scores_packed);
    ("stream-epochs", Stream_epochs.run);
    ("serve-mix", Serve_mix.run);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload ("
    ^ String.concat "|" (List.map fst workloads)
    ^ ") --seed N --seconds S --trace 0|1 [--nproc N] [--profile P] [--cpu C]");
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let opt k = Option.value (List.assoc_opt k args) ~default:"unknown" in
  (workload, int "seed", float_of_int seconds, trace = 1, opt "nproc", opt "profile", opt "cpu")

let ms s = 1000. *. s
let fi = float_of_int

(* How a metric's raw value is normalised by the probe: a time is
   multiplied by the run's factor, a rate divided by it.  A [Local]
   metric was normalised release by release and carries its normalised
   value. *)
type kind = Time | Rate | Exact | Local of float

type metric = { name : string; unit : string; kind : kind; raw : float }

let m kind name unit raw = { name; unit; kind; raw }

(* A release's latency at the reference speed (see probe.ml). *)
let normalised_latency ~probe x = x.latency_s *. Probe.local_factor probe ~at:x.slice

(* The run's factor: its verified releases' factors, weighted by their
   latencies. *)
let run_factor ~probe rels =
  let ok = List.filter (fun x -> x.ok) rels in
  Measure.sum_f (normalised_latency ~probe) ok /. Measure.sum_f (fun x -> x.latency_s) ok

let end_to_end ~probe (r : run) =
  let rels = r.loop.releases in
  let n = fi (List.length rels) in
  let ok = List.filter (fun x -> x.ok) rels in
  let lat = List.map (fun x -> x.latency_s) rels in
  let norm = List.map (normalised_latency ~probe) rels in
  let per_release f = fi (Measure.sum_i f rels) /. n in
  [
    m Rate "releases_per_s" "1/s" (fi (List.length ok) /. r.loop.wall_s);
    m (Local (ms (Measure.median norm))) "release_p50_ms" "ms" (ms (Measure.median lat));
    m (Local (ms (Measure.percentile 90. norm))) "release_p90_ms" "ms" (ms (Measure.percentile 90. lat));
    m Rate "updates_per_s" "1/s" (fi (Measure.sum_i (fun x -> x.updates) ok) /. r.loop.wall_s);
    m Time "cpu_ms_per_release" "ms" (ms r.loop.cpu_s /. n);
    m Exact "payload_bytes_per_release" "B" (per_release (fun x -> x.payload));
    m Exact "wire_bytes_per_release" "B" (per_release (fun x -> x.wire));
    m Exact "rounds_per_release" "count" (per_release (fun x -> x.rounds));
    m Exact "peak_mem_mb" "MB" r.peak_mb;
    m
      (Local (Measure.median (List.map (fun (s, at) -> s *. Probe.local_factor probe ~at) r.setups)))
      "setup_s" "s"
      (Measure.median (List.map fst r.setups));
  ]

let per_layer ~probe (r : run) =
  let rels = r.loop.releases in
  let traced = List.filter (fun x -> x.traced && x.ok) rels in
  let untraced = List.filter (fun x -> (not x.traced) && x.ok) rels in
  let mean f = Measure.mean f traced in
  let sum_f f = Measure.sum_f f traced and sum_i f = fi (Measure.sum_i f traced) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let overhead x = x.stage_s -. x.compute_s in
  let layers x = x.plan_s +. x.stage_s +. x.result_s +. x.ingest_s in
  let enc_ns, dec_ns = codec_calibration ~modulus:r.modulus ~bytes:r.largest_payload in
  let keygen_ms, encrypt_us, decrypt_us = crypto_calibration ~bits:Batch.scores_key_bits in
  let layer k default = Option.value (List.assoc_opt k r.layers) ~default in
  let median_latency rels = Measure.median (List.map (fun x -> x.latency_s) rels) in
  let gc f = match r.gc with Some g -> f g | None -> 0. in
  [
    m Exact "calib.index_ms" "ms" (Probe.reference_ms /. run_factor ~probe rels);
    m Exact "calib.probe_share_pct" "%"
      (100. *. probe.Probe.spent_s /. (probe.Probe.spent_s +. r.loop.wall_s));
    m Time "core.plan_build_ms" "ms" (layer "core.plan_build_ms" (ms (mean (fun x -> x.plan_s))));
    m Time "core.result_ms" "ms" (ms (mean (fun x -> x.result_s)));
    m Exact "core.recompute_frac" "ratio"
      (ratio (sum_i (fun x -> x.recomputed)) (sum_i (fun x -> x.groups)));
    m Time "net.stage_ms" "ms" (layer "net.stage_ms" (ms (mean (fun x -> x.stage_s))));
    m Time "net.compute_ms" "ms" (layer "net.compute_ms" (ms (mean (fun x -> x.compute_s))));
    m Time "net.overhead_us_per_round" "us"
      (layer "net.overhead_us_per_round" (1e6 *. ratio (sum_f overhead) (sum_i (fun x -> x.rounds))));
    m Exact "net.sessions_per_release" "count"
      (layer "net.sessions_per_release" (mean (fun x -> fi x.sessions)));
    m Exact "net.framing_ratio" "ratio" (ratio (sum_i (fun x -> x.wire)) (sum_i (fun x -> x.payload)));
    m Time "codec.encode_ns_per_byte" "ns/B" enc_ns;
    m Time "codec.decode_ns_per_byte" "ns/B" dec_ns;
    m Time "crypto.keygen_ms" "ms" keygen_ms;
    m Time "crypto.encrypt_us" "us" encrypt_us;
    m Time "crypto.decrypt_us" "us" decrypt_us;
    m Exact "crypto.ciphertexts_per_release" "count" r.ciphertexts_per_release;
    m Time "ingest.us_per_update" "us"
      (1e6 *. ratio (sum_f (fun x -> x.ingest_s -. x.snapshot_s)) (sum_i (fun x -> x.updates)));
    m Time "ingest.snapshot_ms" "ms" (ms (mean (fun x -> x.snapshot_s)));
    m Exact "ingest.dirty_pairs_per_epoch" "count" (mean (fun x -> fi x.dirty_pairs));
    m Time "serve.submit_us" "us" (layer "serve.submit_us" 0.);
    m Time "serve.overhead_ms_per_job" "ms" (layer "serve.overhead_ms_per_job" 0.);
    m Exact "serve.timer_fires_per_job" "count" (layer "serve.timer_fires_per_job" 0.);
    m Exact "serve.reactor_iterations_per_job" "count" (layer "serve.reactor_iterations_per_job" 0.);
    m Exact "serve.busy_rejected" "count" (layer "serve.busy_rejected" 0.);
    m Exact "serve.rss_kb_per_job" "kB" (layer "serve.rss_kb_per_job" 0.);
    m Exact "gc.alloc_mb_per_release" "MB" (gc (fun g -> g.alloc_mb));
    m Exact "gc.major_per_release" "count" (gc (fun g -> g.major));
    m Exact "gc.minor_per_release" "count" (gc (fun g -> g.minor));
    m Exact "obs.trace_overhead_pct" "%"
      (layer "obs.trace_overhead_pct"
         (100. *. ((median_latency traced /. median_latency untraced) -. 1.)));
    m Exact "obs.unattributed_pct" "%"
      (layer "obs.unattributed_pct"
         (100. *. ratio (sum_f (fun x -> x.latency_s -. layers x)) (sum_f (fun x -> x.latency_s))));
  ]

(* A number as JSON: every digit, and null for a value that is not a
   number (only a run with failed releases produces one). *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload, seed, seconds, trace, nproc, profile, cpu = parse Sys.argv in
  (* The probe is forked first, before any daemon or thread. *)
  let probe = Probe.start () in
  let r, metrics =
    Fun.protect
      ~finally:(fun () -> Probe.stop probe)
      (fun () ->
        let r = (List.assoc workload workloads) ~probe ~seed ~seconds ~trace in
        (r, if trace then per_layer ~probe r else end_to_end ~probe r))
  in
  let rels = r.loop.releases in
  let factor = run_factor ~probe rels in
  let value x =
    match x.kind with
    | Time -> x.raw *. factor
    | Rate -> x.raw /. factor
    | Exact -> x.raw
    | Local v -> v
  in
  let attempted = List.length rels in
  let failed = List.length (List.filter (fun x -> not x.ok) rels) in
  let correct = failed = 0 in
  Printf.printf
    "stamp: workload=%s seed=%d seconds=%g trace=%d nproc=%s cpu=%s ocaml=%s profile=%s \
     probe_index_ms=%.4f slices=%d reference_ms=%g\n"
    workload seed seconds (Bool.to_int trace) nproc cpu Sys.ocaml_version profile
    (Probe.reference_ms /. factor) probe.Probe.count Probe.reference_ms;
  Printf.printf "probe kernels (mix, chase, churn, ping) ms: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") (Probe.kernel_ms probe)));
  Printf.printf "releases: %d attempted, %d failed, %d traced; timed wall %.3f s\n" attempted failed
    (List.length (List.filter (fun x -> x.traced) rels))
    r.loop.wall_s;
  Printf.printf "setups_s: %s\n" (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) r.setups));
  Printf.printf "  %-34s %16s %16s  %s\n" "metric" "normalised" "raw" "unit";
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6g %16.6g  %s\n" x.name (value x) x.raw x.unit)
    metrics;
  Printf.printf "  samples: release_p50_ms and release_p90_ms over %d releases, %d beyond p90\n"
    attempted
    (attempted - int_of_float (Float.ceil (0.9 *. fi attempted)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number (value x)) x.unit)
          metrics));
  exit (if correct then 0 else 1)
