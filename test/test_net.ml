(* Tests for the transport subsystem: frame encode/decode, the memory
   and socket transports, the Endpoint round loop (including the
   Runtime.run edge-case contract), equality of protocol results and
   wire statistics across engines, the byte-exact framing-overhead
   accounting, and the fault-injection / timeout paths. *)

module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol1 = Spe_mpc.Protocol1
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3
module P1d = Spe_mpc.Protocol1_distributed
module P2d = Spe_mpc.Protocol2_distributed
module P3d = Spe_mpc.Protocol3_distributed
module Nat = Spe_bignum.Nat
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Driver_distributed = Spe_core.Driver_distributed
module Frame = Spe_net.Frame
module Fault = Spe_net.Fault
module Transport = Spe_net.Transport
module Endpoint = Spe_net.Endpoint
module Net_wire = Spe_net.Net_wire
module Reactor = Spe_net.Reactor

let providers m = Array.init m (fun k -> Wire.Provider k)

(* Fast timeouts so the fault tests finish in well under a second. *)
let fast = { Endpoint.round_timeout = 0.08; max_retries = 3; linger = 0.5 }

(* --- frames ----------------------------------------------------------------- *)

let roundtrip frame =
  let body = Frame.encode frame in
  let decoded = Frame.decode body in
  if decoded <> frame then Alcotest.fail "frame round trip failed";
  (* The closed-form size is exact, and encode_into at an offset
     produces the same bytes encode does. *)
  Alcotest.(check int) "encoded_length closed form"
    (Bytes.length body) (Frame.encoded_length frame);
  let off = 7 in
  let buf = Bytes.make (off + Bytes.length body + 3) '\xAA' in
  let stop = Frame.encode_into frame buf ~pos:off in
  Alcotest.(check int) "encode_into end position" (off + Bytes.length body) stop;
  if not (Bytes.equal body (Bytes.sub buf off (Bytes.length body))) then
    Alcotest.fail "encode_into disagrees with encode"

let test_frame_roundtrips () =
  roundtrip (Frame.Hello { sender = 3 });
  roundtrip
    (Frame.Data
       { round = 7; seq = 2; src = Wire.Host; dst = Wire.Provider 4;
         payload = Runtime.Ints { modulus = 1 lsl 40; values = [| 0; 5; (1 lsl 40) - 1 |] } });
  roundtrip
    (Frame.Data
       { round = 1; seq = 0; src = Wire.Provider 0; dst = Wire.Provider 1;
         payload = Runtime.Floats [| 0.; -1.5; Float.pi |] });
  roundtrip
    (Frame.Data
       { round = 2; seq = 9; src = Wire.Provider 1; dst = Wire.Host;
         payload = Runtime.Bits [| true; false; true; true; false; true; false; true; true |] });
  roundtrip
    (Frame.Data
       { round = 3; seq = 1; src = Wire.Provider 2; dst = Wire.Host;
         payload =
           Runtime.Nats
             { width_bits = 64;
               values = [| Nat.zero; Nat.of_int 123456789; Nat.of_int max_int |] } });
  roundtrip
    (Frame.Data
       { round = 5; seq = 3; src = Wire.Host; dst = Wire.Provider 0;
         payload =
           Runtime.Tuples
             { moduli = [| 8; 300; 17 |]; rows = [| [| 1; 2; 3 |]; [| 7; 299; 16 |] |] } });
  roundtrip
    (Frame.Data
       { round = 6; seq = 0; src = Wire.Provider 1; dst = Wire.Provider 0;
         payload =
           Runtime.Batch
             [ Runtime.Ints { modulus = 1 lsl 12; values = [| 1; 4095 |] };
               Runtime.Nats { width_bits = 16; values = [| Nat.of_int 65535 |] };
               Runtime.Tuples { moduli = [| 4; 4 |]; rows = [| [| 3; 0 |] |] } ] });
  roundtrip (Frame.End_of_round { round = 4; sender = 1; total = 6; to_dst = 2 });
  roundtrip (Frame.Nack { round = 4; sender = 0 });
  roundtrip (Frame.Fin { sender = 2 })

let test_frame_rejects_garbage () =
  Alcotest.check_raises "unknown tag" (Invalid_argument "Frame.decode: unknown tag 200")
    (fun () -> ignore (Frame.decode (Bytes.make 1 '\200')));
  Alcotest.check_raises "truncated" (Invalid_argument "Frame.decode: truncated frame")
    (fun () -> ignore (Frame.decode (Bytes.sub (Frame.encode (Frame.Nack { round = 1; sender = 0 })) 0 3)));
  let full = Frame.encode (Frame.Fin { sender = 1 }) in
  let padded = Bytes.extend full 0 2 in
  Alcotest.check_raises "trailing bytes" (Invalid_argument "Frame.decode: trailing bytes")
    (fun () -> ignore (Frame.decode padded))

let test_frame_payload_length_matches_runtime () =
  let payloads =
    [ Runtime.Ints { modulus = 1 lsl 20; values = [| 1; 2; 3 |] };
      Runtime.Floats [| 1.; 2. |]; Runtime.Bits (Array.make 11 true);
      Runtime.Nats { width_bits = 48; values = [| Nat.of_int 5; Nat.of_int 1000000 |] };
      Runtime.Tuples { moduli = [| 30; 12; 64 |]; rows = [| [| 29; 0; 63 |]; [| 1; 11; 7 |] |] };
      Runtime.Batch
        [ Runtime.Floats [| 0.5 |];
          Runtime.Nats { width_bits = 8; values = [| Nat.of_int 255 |] } ] ]
  in
  List.iter
    (fun payload ->
      let frame =
        Frame.Data { round = 1; seq = 0; src = Wire.Host; dst = Wire.Provider 0; payload }
      in
      Alcotest.(check int) "payload bytes as charged on the simulated wire"
        (Runtime.payload_bits payload / 8)
        (Frame.payload_length frame);
      Alcotest.(check bool) "framing overhead is positive" true
        (Frame.framed_length frame > Frame.payload_length frame))
    payloads

let test_frame_encode_into_zero_alloc () =
  (* The transport hot path: encoding an integer-payload frame into a
     reused buffer must allocate nothing on the minor heap.  Floats /
     Nats payloads box values and are excluded from the guarantee. *)
  let frame =
    Frame.Data
      { round = 12; seq = 3; src = Wire.Provider 1; dst = Wire.Host;
        payload = Runtime.Ints { modulus = 1 lsl 40; values = Array.init 64 (fun i -> i) } }
  in
  let measure frame buf =
    (* Warm up: fault any lazy paths before measuring. *)
    ignore (Frame.encode_into frame buf ~pos:0);
    let iters = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (Frame.encode_into frame buf ~pos:0)
    done;
    let allocated = Gc.minor_words () -. before in
    (* Sampling the counter boxes a couple of floats; anything beyond
       that constant means encode_into allocates per frame. *)
    if allocated > 64.0 then
      Alcotest.failf "encode_into allocated %.0f minor words over %d frames" allocated
        iters
  in
  measure frame (Bytes.create (Frame.encoded_length frame));
  (* Control frames ride the same writer. *)
  let eor = Frame.End_of_round { round = 3; sender = 1; total = 9; to_dst = 4 } in
  measure eor (Bytes.create (Frame.encoded_length eor))

let qcheck_frame_tests =
  let open QCheck in
  let payload_gen =
    Gen.oneof
      [
        Gen.map2
          (fun bits values ->
            let modulus = 1 lsl (2 + bits) in
            Runtime.Ints
              { modulus; values = Array.of_list (List.map (fun v -> v mod modulus) values) })
          (Gen.int_range 0 40)
          (Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 max_int));
        Gen.map (fun l -> Runtime.Floats (Array.of_list l))
          (Gen.list_size (Gen.int_range 0 20) Gen.float);
        Gen.map (fun l -> Runtime.Bits (Array.of_list l))
          (Gen.list_size (Gen.int_range 0 40) Gen.bool);
      ]
  in
  let frame_gen =
    Gen.oneof
      [
        Gen.map (fun s -> Frame.Hello { sender = s }) (Gen.int_range 0 100);
        Gen.map3
          (fun round seq payload ->
            Frame.Data
              { round; seq; src = Wire.Provider 0; dst = Wire.Host; payload })
          (Gen.int_range 1 1000) (Gen.int_range 0 1000) payload_gen;
        Gen.map3
          (fun round sender (total, to_dst) ->
            Frame.End_of_round { round; sender; total; to_dst })
          (Gen.int_range 1 1000) (Gen.int_range 0 100)
          (Gen.pair (Gen.int_range 0 1000) (Gen.int_range 0 1000));
        Gen.map2 (fun round sender -> Frame.Nack { round; sender })
          (Gen.int_range 1 1000) (Gen.int_range 0 100);
        Gen.map (fun s -> Frame.Fin { sender = s }) (Gen.int_range 0 100);
      ]
  in
  [
    Test.make ~name:"length-prefixed frame encode/decode round-trips" ~count:500
      (make frame_gen)
      (fun frame ->
        let body = Frame.encode frame in
        Frame.decode body = frame
        && Frame.framed_length frame = Frame.length_prefix_bytes + Bytes.length body);
  ]

(* --- the reactor's determinism contract -------------------------------------- *)

(* The reactor promises (reactor.mli): due timers fire strictly in
   (deadline, registration) order, cancelled timers never fire, the
   ready queue is drained FIFO in snapshots, and a task posted by a
   running task waits for the {e next} snapshot — behind every queued
   sibling, which is the fairness point machines rely on between
   rounds.  The property builds a seeded batch of already-due timers
   (with deadline collisions), cancellations and chained posts, runs
   it twice, and checks both runs against the analytically expected
   order. *)
let qcheck_reactor_tests =
  let open QCheck in
  let batch_gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 0 24) (Gen.int_range 0 4)) (* timer deadline offsets *)
      (Gen.list_size (Gen.int_range 0 24) Gen.bool) (* cancellation mask *)
      (Gen.int_range 0 12) (* chained post pairs *)
  in
  let run_batch (offsets, cancels, nposts) =
    let r = Reactor.create () in
    let order = ref [] in
    let record e = order := e :: !order in
    let now = Unix.gettimeofday () in
    (* Already-due deadlines (now - 1 - offset): wall-clock independent
       — every timer is due at the first iteration, so the fire order
       is purely the heap's (deadline, seq) contract. *)
    let timers =
      List.mapi
        (fun i off ->
          (i, off, Reactor.at r (now -. 1. -. float_of_int off) (fun () -> record (`Timer i))))
        offsets
    in
    let cancelled =
      List.filteri (fun i _ -> List.nth_opt cancels i = Some true) timers
      |> List.map (fun (i, _, tm) -> Reactor.cancel r tm; i)
    in
    for j = 0 to nposts - 1 do
      (* Each parent posts a child when it runs: the child must land in
         the next snapshot, after every queued parent. *)
      Reactor.post r (fun () ->
          record (`Parent j);
          Reactor.post r (fun () -> record (`Child j)))
    done;
    let live = List.length offsets - List.length cancelled in
    let target = live + (2 * nposts) in
    Reactor.run r ~until:(fun () -> List.length !order >= target);
    let fired = Reactor.timer_fires r in
    Reactor.destroy r;
    (List.rev !order, fired, live)
  in
  let expected_of (offsets, cancels, nposts) =
    let live =
      List.filteri (fun i _ -> List.nth_opt cancels i <> Some true)
        (List.mapi (fun i off -> (i, off)) offsets)
    in
    (* Heap order: smaller deadline first (= larger offset), ties by
       registration sequence. *)
    let timers =
      List.stable_sort (fun (_, o1) (_, o2) -> compare o2 o1) live
      |> List.map (fun (i, _) -> `Timer i)
    in
    timers
    @ List.init nposts (fun j -> `Parent j)
    @ List.init nposts (fun j -> `Child j)
  in
  [
    Test.make ~name:"reactor: timer order, cancellation and ready-FIFO are deterministic"
      ~count:200 (make batch_gen)
      (fun batch ->
        let a, fired_a, live = run_batch batch in
        let b, fired_b, _ = run_batch batch in
        let expected = expected_of batch in
        a = expected && b = expected && fired_a = live && fired_b = live);
  ]

(* --- transports ------------------------------------------------------------- *)

(* Run [reactor] until [cond] holds, failing the test after [timeout]
   seconds; a sentinel timer makes sure the loop wakes to look. *)
let run_until ?(timeout = 2.) reactor cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let sentinel = Reactor.at reactor deadline ignore in
  Reactor.run reactor ~until:(fun () -> cond () || Unix.gettimeofday () >= deadline);
  Reactor.cancel reactor sentinel;
  if not (cond ()) then Alcotest.fail "reactor did not reach the expected state"

let with_reactor f =
  let reactor = Reactor.create () in
  Fun.protect ~finally:(fun () -> Reactor.destroy reactor) (fun () -> f reactor)

let recv_string (t : Transport.t) = Option.map Bytes.to_string (t.Transport.try_recv ())
let framed s = Frame.length_prefix_bytes + String.length s

let test_memory_transport_delivers () =
  with_reactor (fun reactor ->
      let group = Transport.Memory.reactor_group ~reactor ~m:2 () in
      let a = group.(0) and b = group.(1) in
      let wakes = ref 0 in
      b.Transport.set_notify (fun () -> incr wakes);
      a.Transport.send 1 (Bytes.of_string "one");
      a.Transport.send 1 (Bytes.of_string "two");
      Alcotest.(check int) "one notify per delivery" 2 !wakes;
      Alcotest.(check (option string)) "fifo 1" (Some "one") (recv_string b);
      Alcotest.(check (option string)) "fifo 2" (Some "two") (recv_string b);
      Alcotest.(check (option string)) "empty queue" None (recv_string b);
      Alcotest.(check (option string)) "nothing addressed to the sender" None (recv_string a);
      Alcotest.(check int) "framed bytes counted" (framed "one" + framed "two")
        (a.Transport.sent_bytes ());
      a.Transport.close ();
      Alcotest.(check int) "close notifies" 3 !wakes;
      Alcotest.check_raises "send after close" Transport.Closed (fun () ->
          b.Transport.send 0 (Bytes.of_string "x"));
      Alcotest.check_raises "recv after close" Transport.Closed (fun () ->
          ignore (a.Transport.try_recv ())))

(* Every fault is charged before it is decided: a dropped or delayed
   frame costs its framed bytes once, a duplicated one twice, and the
   delayed frame arrives later on a reactor timer. *)
let test_memory_transport_fault_accounting () =
  with_reactor (fun reactor ->
      let fault =
        let n = ref 0 in
        Fault.make (fun ~src:_ ~dst:_ ->
            let i = !n in
            incr n;
            match i with
            | 0 -> Fault.Drop
            | 1 -> Fault.Delay 0.05
            | 2 -> Fault.Duplicate
            | _ -> Fault.Deliver)
      in
      let trace = Spe_obs.Trace.create () in
      let group = Transport.Memory.reactor_group ~fault ~trace ~reactor ~m:2 () in
      let a = group.(0) and b = group.(1) in
      let wakes = ref 0 in
      b.Transport.set_notify (fun () -> incr wakes);
      let frames = [ "lost"; "late"; "twice"; "plain" ] in
      a.Transport.send_many 1 (List.map Bytes.of_string frames);
      let charged = framed "lost" + framed "late" + (2 * framed "twice") + framed "plain" in
      Alcotest.(check int) "charged before the decision, duplicate twice" charged
        (a.Transport.sent_bytes ());
      Alcotest.(check int) "one notify for the burst" 1 !wakes;
      Alcotest.(check (list (option string))) "delivered now"
        [ Some "twice"; Some "twice"; Some "plain"; None ]
        (List.init 4 (fun _ -> recv_string b));
      run_until reactor (fun () -> !wakes = 2);
      Alcotest.(check (option string)) "delayed frame arrives on the timer" (Some "late")
        (recv_string b);
      let total counter =
        List.fold_left
          (fun acc -> function
            | Spe_obs.Trace.Count { counter = c; delta; _ } when c = counter -> acc + delta
            | _ -> acc)
          0 (Spe_obs.Trace.events trace)
      in
      Alcotest.(check int) "trace transport bytes" charged
        (total Spe_obs.Trace.Transport_bytes);
      Alcotest.(check int) "one drop" 1 (total Spe_obs.Trace.Faults_dropped);
      Alcotest.(check int) "one delay" 1 (total Spe_obs.Trace.Faults_delayed);
      (* A frame still held when the group closes is swallowed. *)
      let held = Fault.make (fun ~src:_ ~dst:_ -> Fault.Delay 0.01) in
      let group = Transport.Memory.reactor_group ~fault:held ~reactor ~m:2 () in
      group.(0).Transport.send 1 (Bytes.of_string "orphan");
      group.(0).Transport.close ();
      let fired = ref false in
      ignore (Reactor.at reactor (Unix.gettimeofday () +. 0.03) (fun () -> fired := true));
      run_until reactor (fun () -> !fired);
      Alcotest.check_raises "closed group stays closed" Transport.Closed (fun () ->
          ignore (group.(1).Transport.try_recv ())))

let test_socket_transport_delivers () =
  with_reactor (fun reactor ->
      let group =
        Transport.Socket.reactor_group ~reactor
          ~addresses:(Transport.Socket.temp_unix_addresses ~m:3) ()
      in
      (* Each endpoint's hook drains its queue as the loop delivers. *)
      let got = Array.make 3 [] in
      Array.iteri
        (fun i (t : Transport.t) ->
          t.Transport.set_notify (fun () ->
              let rec drain () =
                match t.Transport.try_recv () with
                | Some body ->
                  got.(i) <- Bytes.to_string body :: got.(i);
                  drain ()
                | None -> ()
              in
              try drain () with Transport.Closed -> ()))
        group;
      group.(2).Transport.send 0 (Bytes.of_string "hello-from-2");
      group.(0).Transport.send 2 (Bytes.of_string "first-from-0");
      group.(0).Transport.send 2 (Bytes.of_string "second-from-0");
      run_until reactor (fun () -> List.length got.(0) = 1 && List.length got.(2) = 2);
      Alcotest.(check (list string)) "2 -> 0" [ "hello-from-2" ] got.(0);
      Alcotest.(check (list string)) "0 -> 2 in fifo order" [ "first-from-0"; "second-from-0" ]
        (List.rev got.(2));
      Alcotest.(check (list string)) "nothing addressed to 1" [] got.(1);
      Alcotest.(check (option string)) "empty queue" None (recv_string group.(1));
      (* Endpoint 0 dials nobody, so its counter holds only its frames. *)
      Alcotest.(check int) "framed bytes counted"
        (framed "first-from-0" + framed "second-from-0")
        (group.(0).Transport.sent_bytes ());
      group.(0).Transport.close ();
      Alcotest.check_raises "send after close" Transport.Closed (fun () ->
          group.(1).Transport.send 2 (Bytes.of_string "x"));
      Alcotest.check_raises "recv after close" Transport.Closed (fun () ->
          ignore (group.(2).Transport.try_recv ())))

(* A length prefix with the sign bit set is a corrupt stream: every
   reader closes the connection with [Closed] instead of handing the
   negative length to [Bytes.create] or [Bytes.sub]. *)
let test_negative_length_prefix_closes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () ->
      Transport.Socket.write_frame a (Bytes.of_string "ok");
      ignore (Unix.write_substring a "\xff\xff\xff\xf0" 0 4);
      Alcotest.(check (option string)) "frame before the corrupt prefix" (Some "ok")
        (Option.map Bytes.to_string (Transport.Socket.read_frame b));
      Alcotest.check_raises "read_frame" Transport.Closed (fun () ->
          ignore (Transport.Socket.read_frame b)));
  (* The group engines' buffered path: frames before the prefix are
     delivered, a split frame waits for its tail, the prefix closes. *)
  let frames = Bytes.of_string "\000\000\000\002ok\000\000\000\005par" in
  let got = ref [] in
  let deliver body = got := Bytes.to_string body :: !got in
  Alcotest.(check int) "split frame left for the next read" 6
    (Transport.Socket.split_frames frames ~off:0 ~len:(Bytes.length frames) deliver);
  let corrupt = Bytes.of_string "\000\000\000\002ok\xff\xff\xff\xf0" in
  Alcotest.check_raises "split_frames" Transport.Closed (fun () ->
      ignore (Transport.Socket.split_frames corrupt ~off:0 ~len:(Bytes.length corrupt) deliver));
  Alcotest.(check (list string)) "delivered in order" [ "ok"; "ok" ] (List.rev !got)

(* --- the Endpoint engine contract (Runtime.run edge cases) -------------------- *)

(* A one-shot program: sends its floats to the next party in round 1,
   then goes quiet.  Exercises quiescence exactly like Runtime.run. *)
let one_shot_programs parties =
  let m = Array.length parties in
  Array.init m (fun k ->
      fun ~round ~inbox:_ ->
        if round = 1 then
          [ { Runtime.src = parties.(k); dst = parties.((k + 1) mod m);
              payload = Runtime.Floats [| float_of_int k |] } ]
        else [])

let test_endpoint_quiescent_round_not_charged () =
  let parties = providers 3 in
  let res =
    Endpoint.run_memory ~config:fast ~parties ~programs:(one_shot_programs parties)
      ~max_rounds:5 ()
  in
  Array.iter
    (fun (o : Endpoint.outcome) ->
      Alcotest.(check int) "one active round" 1 o.Endpoint.rounds)
    res.Endpoint.outcomes;
  let merged =
    Net_wire.merge (Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes)
  in
  let s = Wire.stats merged in
  Alcotest.(check int) "merged wire: 1 round" 1 s.Wire.rounds;
  Alcotest.(check int) "merged wire: 3 messages" 3 s.Wire.messages;
  (* The in-process engine agrees, message for message. *)
  let engine = Runtime.create () in
  let programs = one_shot_programs parties in
  Array.iteri (fun k p -> Runtime.add_party engine p programs.(k)) parties;
  let w = Wire.create () in
  let rounds = Runtime.run engine ~wire:w ~max_rounds:5 in
  Alcotest.(check int) "engine rounds agree" rounds 1;
  Alcotest.(check bool) "engine stats agree" true (Wire.stats w = s)

let test_endpoint_nontermination_detected () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    Array.init 2 (fun k ->
        fun ~round:_ ~inbox:_ ->
          [ { Runtime.src = parties.(k); dst = parties.(1 - k);
              payload = Runtime.Bits [| true |] } ])
  in
  Alcotest.check_raises "runaway protocol"
    (Failure "Endpoint.run: protocol did not terminate") (fun () ->
      ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

let test_endpoint_rejects_unknown_destination () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    [|
      (fun ~round:_ ~inbox:_ ->
        [ { Runtime.src = Wire.Host; dst = Wire.Provider 9;
            payload = Runtime.Bits [| true |] } ]);
      (fun ~round:_ ~inbox:_ -> []);
    |]
  in
  Alcotest.check_raises "unknown party"
    (Invalid_argument "Endpoint.run: message to unknown party") (fun () ->
      ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

let test_endpoint_rejects_forged_source () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    [|
      (fun ~round:_ ~inbox:_ ->
        [ { Runtime.src = Wire.Provider 0; dst = Wire.Host;
            payload = Runtime.Bits [| true |] } ]);
      (fun ~round:_ ~inbox:_ -> []);
    |]
  in
  Alcotest.check_raises "forged source" (Invalid_argument "Endpoint.run: forged source")
    (fun () -> ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

(* --- protocol equality across engines ----------------------------------------- *)

let p1_reference ~seed ~parties ~modulus ~inputs =
  let s = State.create ~seed () in
  let w = Wire.create () in
  let r = P1d.run s ~wire:w ~parties ~modulus ~inputs in
  (r, Wire.stats w)

let run_p1_over engine ~seed ~parties ~modulus ~inputs =
  let s = State.create ~seed () in
  let session = P1d.make s ~parties ~modulus ~inputs in
  let res =
    engine ~parties:session.Session.parties ~programs:session.Session.programs
      ~max_rounds:P1d.max_rounds ()
  in
  (session.Session.result (), res)

let logs_of (res : Endpoint.result) =
  Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes

let check_p1_engine engine label =
  List.iter
    (fun m ->
      let parties = providers m in
      let modulus = 1 lsl 30 in
      let inputs = Array.init m (fun k -> Array.init 5 (fun l -> (k * 17) + l)) in
      let reference, sim_stats = p1_reference ~seed:11 ~parties ~modulus ~inputs in
      let result, res = run_p1_over engine ~seed:11 ~parties ~modulus ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d share1" label m)
        true
        (result.Protocol1.share1 = reference.Protocol1.share1);
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d share2" label m)
        true
        (result.Protocol1.share2 = reference.Protocol1.share2);
      let merged_stats = Wire.stats (Net_wire.merge (logs_of res)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d NR/NM/MS identical to the simulated wire" label m)
        true (merged_stats = sim_stats))
    [ 2; 3; 4 ]

let mem_engine ?config ?fault () ~parties ~programs ~max_rounds () =
  Endpoint.run_memory ?config ?fault ~parties ~programs ~max_rounds ()

let sock_engine ~parties ~programs ~max_rounds () =
  Endpoint.run_socket ~parties ~programs ~max_rounds ()

let test_p1_memory_matches_sim () = check_p1_engine (mem_engine ()) "memory"

let test_p1_socket_matches_sim () = check_p1_engine sock_engine "socket"

let check_p2_engine engine label =
  List.iter
    (fun m ->
      let parties = providers m in
      let modulus = 1 lsl 14 and bound = 1000 in
      let inputs = Array.init m (fun k -> Array.init 4 (fun l -> (k * 31 + l) mod (bound / m))) in
      let s = State.create ~seed:23 () in
      let w = Wire.create () in
      let reference =
        P2d.run s ~wire:w ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
      in
      let s = State.create ~seed:23 () in
      let session =
        P2d.make s ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
      in
      let res =
        engine ~parties:session.Session.parties ~programs:session.Session.programs
          ~max_rounds:P2d.max_rounds ()
      in
      let result = session.Session.result () in
      Alcotest.(check bool) (Printf.sprintf "%s m=%d share1" label m) true
        (result.Protocol2.share1 = reference.P2d.share1);
      Alcotest.(check bool) (Printf.sprintf "%s m=%d share2" label m) true
        (result.Protocol2.share2 = reference.P2d.share2);
      let merged_stats = Wire.stats (Net_wire.merge (logs_of res)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d NR/NM/MS identical to the simulated wire" label m)
        true
        (merged_stats = Wire.stats w))
    [ 2; 3; 5 ]

let test_p2_memory_matches_sim () = check_p2_engine (mem_engine ()) "memory"

let test_p2_socket_matches_sim () = check_p2_engine sock_engine "socket"

(* Protocol 3: the quotient and the full NR/NM/MS triple are identical
   across the central run, the in-process session, and both transport
   engines — the distributed twin charges the same two Floats sends. *)
let test_p3_cross_engine () =
  let p1 = Wire.Provider 0 and p2 = Wire.Provider 1 and host = Wire.Host in
  List.iter
    (fun (a1, a2) ->
      let label = Printf.sprintf "p3 a1=%d a2=%d" a1 a2 in
      let central_q, central_stats =
        let s = State.create ~seed:71 () in
        let w = Wire.create () in
        let o = Protocol3.run s ~wire:w ~p1 ~p2 ~host ~a1 ~a2 in
        (o.Protocol3.quotient, Wire.stats w)
      in
      let session () = P3d.make (State.create ~seed:71 ()) ~p1 ~p2 ~host ~a1 ~a2 in
      let w = Wire.create () in
      let sim_q = Session.run (session ()) ~wire:w in
      Alcotest.(check bool) (label ^ ": sim quotient bit-identical") true (sim_q = central_q);
      Alcotest.(check bool) (label ^ ": sim NR/NM/MS identical to the central wire") true
        (Wire.stats w = central_stats);
      List.iter
        (fun (engine_label, run) ->
          let q, res = run (session ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: quotient bit-identical" label engine_label)
            true (q = central_q);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: NR/NM/MS identical to the central wire" label engine_label)
            true
            (Wire.stats (Net_wire.merge (logs_of res)) = central_stats))
        [ ("memory", fun s -> Endpoint.run_session_memory s);
          ("socket", fun s -> Endpoint.run_session_socket s) ])
    [ (3, 4); (0, 7); (5, 0) ]

(* --- full pipelines across engines --------------------------------------------- *)

let pipeline_workload = Util.workload

(* The distributed pipelines charge the same NR and NM as the central
   oracle, but the typed payload encodings pad each value to whole
   bytes (DESIGN.md, "central vs distributed wire sizes"): a value of
   b >= 1 central bits occupies 8 * ceil(b / 8) <= 8b distributed bits,
   plus at most one padded byte of per-message fixed overhead — hence
   MS_central <= MS_distributed <= 9 * MS_central + 8 * NM. *)
let check_ms_envelope label ~(central : Wire.stats) ~distributed_bits =
  Alcotest.(check bool)
    (label ^ ": MS within the typed-encoding envelope")
    true
    (distributed_bits >= central.Wire.bits
    && distributed_bits <= (9 * central.Wire.bits) + (8 * central.Wire.messages))

let session_engines = [ ("memory", `Memory); ("socket", `Socket) ]

let run_session_over engine session =
  match engine with
  | `Memory -> Endpoint.run_session_memory session
  | `Socket -> Endpoint.run_session_socket session

let check_links_cross_engine (seed, n, edges, actions, m) =
  let label = Printf.sprintf "links m=%d seed=%d" m seed in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let central =
    Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs config
  in
  let session () =
    Driver_distributed.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
      config
  in
  let w = Wire.create () in
  let sim = Session.run (session ()) ~wire:w in
  let sim_stats = Wire.stats w in
  Alcotest.(check bool) (label ^ ": sim strengths bit-identical to the central oracle") true
    (sim.Protocol4.strengths = central.Driver.strengths);
  Alcotest.(check int) (label ^ ": NR matches the central oracle")
    central.Driver.wire.Wire.rounds sim_stats.Wire.rounds;
  Alcotest.(check int) (label ^ ": NM matches the central oracle")
    central.Driver.wire.Wire.messages sim_stats.Wire.messages;
  check_ms_envelope label ~central:central.Driver.wire ~distributed_bits:sim_stats.Wire.bits;
  List.iter
    (fun (engine_label, engine) ->
      let (result : Protocol4.result), res = run_session_over engine (session ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: result identical to sim" label engine_label)
        true
        (result.Protocol4.strengths = sim.Protocol4.strengths
        && result.Protocol4.pair_estimates = sim.Protocol4.pair_estimates
        && result.Protocol4.pairs = sim.Protocol4.pairs);
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: NR/NM/MS identical to sim" label engine_label)
        true
        (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats))
    session_engines

let check_scores_cross_engine (seed, n, edges, actions, m) =
  let label = Printf.sprintf "scores m=%d seed=%d" m seed in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let tau = 6 and modulus = 1 lsl 20 in
  let central =
    Driver.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau
      ~modulus config
  in
  let session () =
    Driver_distributed.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g
      ~logs ~tau ~modulus config
  in
  let w = Wire.create () in
  let sim = Session.run (session ()) ~wire:w in
  let sim_stats = Wire.stats w in
  Alcotest.(check bool) (label ^ ": sim scores bit-identical to the central oracle") true
    (sim.Driver_distributed.scores = central.Driver.scores);
  Alcotest.(check bool) (label ^ ": sim graphs identical to the central oracle") true
    (sim.Driver_distributed.graphs = central.Driver.graphs);
  Alcotest.(check int) (label ^ ": NR matches the central oracle")
    central.Driver.wire.Wire.rounds sim_stats.Wire.rounds;
  Alcotest.(check int) (label ^ ": NM matches the central oracle")
    central.Driver.wire.Wire.messages sim_stats.Wire.messages;
  check_ms_envelope label ~central:central.Driver.wire ~distributed_bits:sim_stats.Wire.bits;
  List.iter
    (fun (engine_label, engine) ->
      let (result : Driver_distributed.scores), res = run_session_over engine (session ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: result identical to sim" label engine_label)
        true
        (result.Driver_distributed.scores = sim.Driver_distributed.scores
        && result.Driver_distributed.graphs = sim.Driver_distributed.graphs);
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: NR/NM/MS identical to sim" label engine_label)
        true
        (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats))
    session_engines

let test_links_cross_engine () =
  List.iter check_links_cross_engine
    [ (101, 24, 70, 10, 2); (103, 30, 90, 12, 2); (101, 24, 70, 10, 3); (103, 30, 90, 12, 3) ]

let test_scores_cross_engine () =
  List.iter check_scores_cross_engine
    [ (105, 18, 50, 8, 2); (107, 22, 66, 10, 2); (105, 18, 50, 8, 3); (107, 22, 66, 10, 3) ]

(* --- byte accounting ----------------------------------------------------------- *)

(* The documented overhead formula (DESIGN.md "Framing overhead"): a
   fault-free run transmits, beyond the data frames, one End_of_round
   per endpoint per peer per executed step (active rounds + the
   quiescent one) and one Fin per endpoint per peer; the socket backend
   adds one Hello per connection. *)
let expected_transport_bytes ~m ~rounds ~data_framed ~hellos =
  let eor = Frame.framed_length (Frame.End_of_round { round = 1; sender = 0; total = 0; to_dst = 0 }) in
  let fin = Frame.framed_length (Frame.Fin { sender = 0 }) in
  let hello = Frame.framed_length (Frame.Hello { sender = 0 }) in
  data_framed
  + (m * (rounds + 1) * (m - 1) * eor)
  + (m * (m - 1) * fin)
  + if hellos then m * (m - 1) / 2 * hello else 0

let check_byte_accounting engine ~hellos label =
  let m = 4 in
  let parties = providers m in
  let modulus = 1 lsl 40 in
  let inputs = Array.init m (fun k -> Array.init 16 (fun l -> (k * 1000) + l)) in
  let _, sim_stats = p1_reference ~seed:31 ~parties ~modulus ~inputs in
  let _, res = run_p1_over engine ~seed:31 ~parties ~modulus ~inputs in
  let logs = logs_of res in
  let totals = Net_wire.totals logs in
  (* Payload bytes: exactly the simulated MS. *)
  Alcotest.(check int)
    (label ^ ": payload bytes = simulated MS / 8")
    (sim_stats.Wire.bits / 8) totals.Net_wire.payload_bytes;
  (* Measured transport bytes: payload + the documented framing overhead. *)
  let rounds = res.Endpoint.outcomes.(0).Endpoint.rounds in
  Alcotest.(check int)
    (label ^ ": transport bytes = data frames + documented control overhead")
    (expected_transport_bytes ~m ~rounds ~data_framed:totals.Net_wire.framed_bytes ~hellos)
    res.Endpoint.transport_bytes

let test_memory_byte_accounting () =
  check_byte_accounting (mem_engine ()) ~hellos:false "memory"

let test_socket_byte_accounting () =
  check_byte_accounting sock_engine ~hellos:true "socket"

(* --- fault injection ------------------------------------------------------------ *)

let test_dropped_frames_are_retransmitted () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| 2 * k; 5 + k |]) in
  let reference, sim_stats = p1_reference ~seed:41 ~parties ~modulus ~inputs in
  (* Drop two early frames: the Nack/retransmit path must recover and
     the protocol outcome must be unchanged. *)
  let result, res =
    run_p1_over
      (mem_engine ~config:fast ~fault:(Fault.drop_nth [ 1; 5 ]) ())
      ~seed:41 ~parties ~modulus ~inputs
  in
  Alcotest.(check bool) "shares survive frame loss" true
    (result.Protocol1.share1 = reference.Protocol1.share1
    && result.Protocol1.share2 = reference.Protocol1.share2);
  Alcotest.(check bool) "wire statistics survive frame loss" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats);
  (* The retransmissions cost real bytes beyond the fault-free run. *)
  let _, clean = run_p1_over (mem_engine ~config:fast ()) ~seed:41 ~parties ~modulus ~inputs in
  Alcotest.(check bool) "retransmissions are visible in transport bytes" true
    (res.Endpoint.transport_bytes > clean.Endpoint.transport_bytes)

let test_delayed_frame_reorders_and_recovers () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| 9 * k; k + 1 |]) in
  let reference, sim_stats = p1_reference ~seed:43 ~parties ~modulus ~inputs in
  (* Hold one round-1 frame past the round timeout: its round completes
     late (via the delayed original or a Nacked retransmission), and
     later frames overtake it — the reorder path. *)
  let result, res =
    run_p1_over
      (mem_engine ~config:fast ~fault:(Fault.delay_nth [ (2, 0.15) ]) ())
      ~seed:43 ~parties ~modulus ~inputs
  in
  Alcotest.(check bool) "shares survive reordering" true
    (result.Protocol1.share1 = reference.Protocol1.share1
    && result.Protocol1.share2 = reference.Protocol1.share2);
  Alcotest.(check bool) "wire statistics survive reordering" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats)

let test_blackhole_times_out_cleanly () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| k |]) in
  let s = State.create ~seed:47 () in
  let session = P1d.make s ~parties ~modulus ~inputs in
  let t0 = Unix.gettimeofday () in
  (match
     Endpoint.run_memory ~config:fast ~fault:(Fault.blackhole ~src:0 ~dst:2)
       ~parties:session.Session.parties ~programs:session.Session.programs
       ~max_rounds:P1d.max_rounds ()
   with
  | _ -> Alcotest.fail "a dead link must not let the run complete"
  | exception Endpoint.Round_timeout { party; round; phase; missing } ->
    Alcotest.(check bool) "starved party raises" true (party = Wire.Provider 2);
    Alcotest.(check int) "at the round the link died" 1 round;
    Alcotest.(check (option string)) "no phase map on raw programs" None phase;
    Alcotest.(check bool) "names the silent peer" true (missing = [ Wire.Provider 0 ]));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded retries, no hang (%.2fs)" elapsed)
    true
    (elapsed < 10. *. fast.Endpoint.round_timeout)

(* --- sharded plans over the worker pool ----------------------------------------- *)

module Shard = Spe_core.Shard
module Plan = Spe_core.Plan
module Protocol5 = Spe_core.Protocol5

(* Drive every stage of a plan through a transport worker pool,
   keeping each shard session's group size and endpoint result for the
   accounting checks below. *)
let run_plan_over engine ~workers (plan : _ Plan.t) =
  let groups = ref [] in
  List.iter
    (fun (stage : Plan.stage) ->
      let rs =
        match engine with
        | `Memory -> Endpoint.run_sessions_memory ~workers stage.Plan.sessions
        | `Socket -> Endpoint.run_sessions_socket ~workers stage.Plan.sessions
      in
      Array.iteri
        (fun i ((), res) ->
          let m = Array.length stage.Plan.sessions.(i).Session.parties in
          groups := (m, res) :: !groups)
        rs)
    plan.Plan.stages;
  (plan.Plan.result (), List.rev !groups)

(* Each shard session runs on its own connection group, so the framing
   closed form of the accounting tests must hold per group — with no
   Hello term: pool groups (memory, and socketpair socket groups) have
   no dial handshake. *)
let check_plan_accounting label plan groups ~payload_ref =
  List.iteri
    (fun g (m, (res : Endpoint.result)) ->
      let rounds =
        Array.fold_left (fun acc o -> max acc o.Endpoint.rounds) 0 res.Endpoint.outcomes
      in
      let totals = Net_wire.totals (logs_of res) in
      Alcotest.(check int)
        (Printf.sprintf "%s group %d: framing closed form" label g)
        (expected_transport_bytes ~m ~rounds ~data_framed:totals.Net_wire.framed_bytes
           ~hellos:false)
        res.Endpoint.transport_bytes)
    groups;
  let payload =
    List.fold_left
      (fun acc (_, res) -> acc + (Net_wire.totals (logs_of res)).Net_wire.payload_bytes)
      0 groups
  in
  Alcotest.(check int)
    (label ^ ": per-shard payload bytes sum to the unsharded MS")
    payload_ref payload;
  let rounds = List.fold_left (fun acc (_, res) ->
      acc + Array.fold_left (fun a o -> max a o.Endpoint.rounds) 0 res.Endpoint.outcomes)
      0 groups
  in
  Alcotest.(check int)
    (label ^ ": executed rounds sum to the plan total")
    (Plan.total_rounds plan) rounds

let test_sharded_links_pool_cross_engine () =
  let seed = 211 and n = 24 and edges = 70 and actions = 10 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let session =
    Driver_distributed.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
      config
  in
  let w = Wire.create () in
  let sim = Session.run session ~wire:w in
  let payload_ref = (Wire.stats w).Wire.bits / 8 in
  List.iter
    (fun (engine_label, engine) ->
      List.iter
        (fun shards ->
          let label = Printf.sprintf "sharded links %s k=%d" engine_label shards in
          let plan =
            Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
              ~shards config
          in
          let result, groups = run_plan_over engine ~workers:2 plan in
          Alcotest.(check bool) (label ^ ": bit-identical to the unsharded run") true
            (result.Protocol4.strengths = sim.Protocol4.strengths
            && result.Protocol4.pair_estimates = sim.Protocol4.pair_estimates
            && result.Protocol4.pairs = sim.Protocol4.pairs);
          check_plan_accounting label plan groups ~payload_ref)
        [ 1; 3 ])
    session_engines

let test_sharded_links_non_exclusive_pool_cross_engine () =
  let seed = 223 and n = 20 and edges = 60 and actions = 9 and m = 3 in
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  let spec = Partition.random_class_spec s ~num_actions:actions ~m ~num_classes:3 in
  let logs = Partition.non_exclusive s log ~spec in
  let config = Protocol4.default_config ~h:2 in
  let obfuscation = Protocol5.Basic in
  let session =
    Driver_distributed.links_non_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g
      ~logs ~spec ~obfuscation config
  in
  let w = Wire.create () in
  let sim = Session.run session ~wire:w in
  let payload_ref = (Wire.stats w).Wire.bits / 8 in
  List.iter
    (fun (engine_label, engine) ->
      let label = Printf.sprintf "sharded non-exclusive links %s k=3" engine_label in
      let plan =
        Shard.links_non_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~spec
          ~obfuscation ~shards:3 config
      in
      let result, groups = run_plan_over engine ~workers:2 plan in
      Alcotest.(check bool) (label ^ ": bit-identical to the unsharded run") true
        (result.Protocol4.strengths = sim.Protocol4.strengths
        && result.Protocol4.pair_estimates = sim.Protocol4.pair_estimates
        && result.Protocol4.pairs = sim.Protocol4.pairs);
      check_plan_accounting label plan groups ~payload_ref)
    session_engines

let test_sharded_scores_pool_cross_engine () =
  let seed = 227 and n = 16 and edges = 44 and actions = 8 and m = 2 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let tau = 6 and modulus = 1 lsl 20 in
  let session =
    Driver_distributed.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g
      ~logs ~tau ~modulus config
  in
  let w = Wire.create () in
  let sim = Session.run session ~wire:w in
  let payload_ref = (Wire.stats w).Wire.bits / 8 in
  List.iter
    (fun (engine_label, engine) ->
      let label = Printf.sprintf "sharded scores %s k=3" engine_label in
      let plan =
        Shard.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
          ~tau ~modulus ~shards:3 config
      in
      let result, groups = run_plan_over engine ~workers:2 plan in
      Alcotest.(check bool) (label ^ ": bit-identical to the unsharded run") true
        (result.Driver_distributed.scores = sim.Driver_distributed.scores
        && result.Driver_distributed.graphs = sim.Driver_distributed.graphs);
      check_plan_accounting label plan groups ~payload_ref)
    session_engines

(* Regression pinning the two transport engines to each other and to
   the simulated-wire oracle across shard counts: the memory pool
   (run_sessions_memory — machines on one loop over in-process queues),
   the socket pool (run_sessions_socket — the same machines over
   socketpairs) and Session.run must produce bit-identical links and
   scores results at k ∈ {1, 2, 4, 8}. *)
let test_memory_socket_session_k_sweep () =
  let seed = 229 and n = 20 and edges = 55 and actions = 8 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let links_config = Protocol4.default_config ~h:2 in
  let links_sim =
    Session.run
      (Driver_distributed.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g
         ~logs links_config)
      ~wire:(Wire.create ())
  in
  let scores_config = { Protocol6.default_config with Protocol6.key_bits = 64 } in
  let tau = 4 and modulus = 1 lsl 20 in
  let scores_sim =
    Session.run
      (Driver_distributed.user_scores_exclusive (State.create ~seed:(seed + 2) ())
         ~graph:g ~logs ~tau ~modulus scores_config)
      ~wire:(Wire.create ())
  in
  List.iter
    (fun shards ->
      let links_plan () =
        Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards
          links_config
      in
      let socket_links, _ = run_plan_over `Socket ~workers:2 (links_plan ()) in
      let memory_links, _ = run_plan_over `Memory ~workers:2 (links_plan ()) in
      Alcotest.(check bool)
        (Printf.sprintf "links k=%d: memory = socket = Session.run" shards)
        true
        (memory_links.Protocol4.strengths = socket_links.Protocol4.strengths
        && socket_links.Protocol4.strengths = links_sim.Protocol4.strengths
        && socket_links.Protocol4.pair_estimates = links_sim.Protocol4.pair_estimates
        && socket_links.Protocol4.pairs = links_sim.Protocol4.pairs);
      let scores_plan () =
        Shard.user_scores_exclusive (State.create ~seed:(seed + 2) ()) ~graph:g ~logs
          ~tau ~modulus ~shards scores_config
      in
      let socket_scores, _ = run_plan_over `Socket ~workers:2 (scores_plan ()) in
      let memory_scores, _ = run_plan_over `Memory ~workers:2 (scores_plan ()) in
      Alcotest.(check bool)
        (Printf.sprintf "scores k=%d: memory = socket = Session.run" shards)
        true
        (memory_scores.Driver_distributed.scores = socket_scores.Driver_distributed.scores
        && socket_scores.Driver_distributed.scores = scores_sim.Driver_distributed.scores
        && socket_scores.Driver_distributed.graphs = scores_sim.Driver_distributed.graphs))
    [ 1; 2; 4; 8 ]

(* A shard whose group stops delivering must fail the stage naming the
   shard and its phase, and the pool must close the sibling groups
   rather than wait out their timeouts. *)
let test_pool_stall_cancels_siblings () =
  let g, logs = pipeline_workload ~seed:211 ~n:24 ~edges:70 ~actions:10 ~m:3 in
  let config = Protocol4.default_config ~h:2 in
  let plan =
    Shard.links_exclusive (State.create ~seed:212 ()) ~graph:g ~logs ~shards:4 config
  in
  let stage = List.hd plan.Plan.stages in
  let ns = Array.length stage.Plan.sessions in
  Alcotest.(check bool) "plan cut into several shard sessions" true (ns >= 4);
  let faults = Array.make ns None in
  faults.(2) <- Some (Fault.blackhole ~src:0 ~dst:1);
  let t0 = Unix.gettimeofday () in
  (match
     Endpoint.run_sessions_memory ~config:fast ~workers:2 ~faults stage.Plan.sessions
   with
  | _ -> Alcotest.fail "a stalled shard must not let the stage complete"
  | exception Endpoint.Shard_failed { shard; phase; exn } ->
    Alcotest.(check int) "names the stalled shard" 2 shard;
    Alcotest.(check bool) "names the phase" true (phase <> None);
    Alcotest.(check bool) "root cause is the round timeout" true
      (match exn with Endpoint.Round_timeout _ -> true | _ -> false));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Bound: the stalled shard's own retries, plus slack for the claim
     order — never the siblings' full timeouts serialised. *)
  Alcotest.(check bool)
    (Printf.sprintf "siblings cancelled, no hang (%.2fs)" elapsed)
    true
    (elapsed < 20. *. fast.Endpoint.round_timeout)

(* The full Protocol 4 exclusive pipeline under a seeded lossy link
   layer: every seeded drop is recovered by the Nack/retransmit
   machinery, so the memory-engine result stays bit-identical to the
   fault-free simulated run, first-transmission accounting still
   matches the simulated wire exactly, and the transport-byte total
   sits at or above the fault-free framing closed form (retransmissions
   only ever add bytes). *)
let test_links_seeded_faults_memory () =
  let seed = 211 and n = 24 and edges = 70 and actions = 10 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let session () =
    Driver_distributed.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
      config
  in
  let w = Wire.create () in
  let sim = Session.run (session ()) ~wire:w in
  let sim_stats = Wire.stats w in
  let fault =
    Fault.seeded (State.create ~seed:4242 ()) ~drop:0.01 ~delay:0.02 ~max_delay:0.05
  in
  let trace = Spe_obs.Trace.create () in
  let (result : Protocol4.result), res =
    Endpoint.run_session_memory ~config:fast ~fault ~trace (session ())
  in
  Alcotest.(check bool) "lossy memory links: result bit-identical to the fault-free sim"
    true
    (result.Protocol4.strengths = sim.Protocol4.strengths
    && result.Protocol4.pair_estimates = sim.Protocol4.pair_estimates
    && result.Protocol4.pairs = sim.Protocol4.pairs);
  Alcotest.(check bool) "lossy memory links: NR/NM/MS identical to sim" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats);
  let report =
    Spe_obs.Metrics.of_trace ~protocol:"links" ~engine:"memory" ~parties:(m + 1) trace
  in
  Alcotest.(check bool) "the seed produced losses and recoveries" true
    (report.Spe_obs.Metrics.faults_dropped >= 1
    && report.Spe_obs.Metrics.retransmits >= 1);
  let totals = Net_wire.totals (logs_of res) in
  let rounds =
    Array.fold_left (fun acc o -> max acc o.Endpoint.rounds) 0 res.Endpoint.outcomes
  in
  Alcotest.(check bool) "transport bytes at or above the closed form" true
    (res.Endpoint.transport_bytes
    >= expected_transport_bytes ~m:(m + 1) ~rounds
         ~data_framed:totals.Net_wire.framed_bytes ~hellos:false)

(* ------------------------------------------------------------------------------ *)

let () =
  Alcotest.run "spe_net"
    [
      ( "frame",
        [
          Alcotest.test_case "round trips" `Quick test_frame_roundtrips;
          Alcotest.test_case "rejects garbage" `Quick test_frame_rejects_garbage;
          Alcotest.test_case "payload length matches runtime" `Quick
            test_frame_payload_length_matches_runtime;
          Alcotest.test_case "encode_into allocates nothing" `Quick
            test_frame_encode_into_zero_alloc;
        ] );
      ( "transport",
        [
          Alcotest.test_case "memory delivery" `Quick test_memory_transport_delivers;
          Alcotest.test_case "memory fault accounting" `Quick
            test_memory_transport_fault_accounting;
          Alcotest.test_case "socket delivery" `Quick test_socket_transport_delivers;
          Alcotest.test_case "negative length prefix closes" `Quick
            test_negative_length_prefix_closes;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "quiescent round not charged" `Quick
            test_endpoint_quiescent_round_not_charged;
          Alcotest.test_case "non-termination" `Quick test_endpoint_nontermination_detected;
          Alcotest.test_case "unknown destination" `Quick
            test_endpoint_rejects_unknown_destination;
          Alcotest.test_case "forged source" `Quick test_endpoint_rejects_forged_source;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "protocol 1 over memory" `Quick test_p1_memory_matches_sim;
          Alcotest.test_case "protocol 1 over sockets" `Quick test_p1_socket_matches_sim;
          Alcotest.test_case "protocol 2 over memory" `Quick test_p2_memory_matches_sim;
          Alcotest.test_case "protocol 2 over sockets" `Quick test_p2_socket_matches_sim;
          Alcotest.test_case "protocol 3 across engines" `Quick test_p3_cross_engine;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "links across engines" `Quick test_links_cross_engine;
          Alcotest.test_case "scores across engines" `Quick test_scores_cross_engine;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "memory bytes" `Quick test_memory_byte_accounting;
          Alcotest.test_case "socket bytes" `Quick test_socket_byte_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop triggers retransmit" `Quick
            test_dropped_frames_are_retransmitted;
          Alcotest.test_case "delay reorders and recovers" `Quick
            test_delayed_frame_reorders_and_recovers;
          Alcotest.test_case "blackhole times out cleanly" `Quick
            test_blackhole_times_out_cleanly;
          Alcotest.test_case "links pipeline under seeded loss" `Quick
            test_links_seeded_faults_memory;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "sharded links over pools" `Quick
            test_sharded_links_pool_cross_engine;
          Alcotest.test_case "sharded non-exclusive links over pools" `Quick
            test_sharded_links_non_exclusive_pool_cross_engine;
          Alcotest.test_case "sharded scores over pools" `Quick
            test_sharded_scores_pool_cross_engine;
          Alcotest.test_case "memory = socket = Session.run at k in {1,2,4,8}" `Quick
            test_memory_socket_session_k_sweep;
          Alcotest.test_case "stalled shard cancels siblings" `Quick
            test_pool_stall_cancels_siblings;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1717 |]))
          (qcheck_frame_tests @ qcheck_reactor_tests) );
    ]
