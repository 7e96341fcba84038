module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session

type config = { round_timeout : float; max_retries : int; linger : float }

let default_config = { round_timeout = 2.0; max_retries = 3; linger = 5.0 }

exception
  Round_timeout of {
    party : Wire.party;
    round : int;
    phase : string option;
    missing : Wire.party list;
  }

let () =
  Printexc.register_printer (function
    | Round_timeout { party; round; phase; missing } ->
      Some
        (Format.asprintf "Endpoint.Round_timeout: %a timed out in round %d%s waiting on %a"
           Wire.pp_party party round
           (match phase with Some p -> Printf.sprintf " (phase %s)" p | None -> "")
           (Format.pp_print_list
              ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
              Wire.pp_party)
           missing)
    | _ -> None)

type outcome = { rounds : int; sent : Net_wire.record list }

type result = { outcomes : outcome array; transport_bytes : int }

(* --- The event-driven endpoint machine ---------------------------------------- *)

(* [Machine] hosts one party of one session as an explicit resumable
   state machine — step, stage data + barriers, flush, collect (Nacking
   silence), repeat to quiescence, then Fin + linger — so one loop
   thread can carry every party of every shard session at once.
   Control never blocks: the machine parks between events, woken by
   its transport's notify hook (new frames), by a reactor timer (round
   deadline, linger deadline), or by a self-post (next round, for fair
   interleaving with its siblings).  The memory and socket engines run
   the same machines and differ only in the transport underneath; the
   central [Driver] and [Session.run] are the differential oracles the
   cross-engine bit-identity suites hold them to. *)
module Machine = struct
  type state =
    | Idle
        (** Between rounds: the next [begin_round] task is queued but
            has not stepped the program yet.  Wakes are ignored — the
            barrier for round [r] may only be inspected after round
            [r]'s own step has staged and flushed, otherwise a machine
            whose peers raced ahead would skip its own step entirely. *)
    | Collecting  (** Barrier wait for the current round. *)
    | Lingering  (** Quiescent: serving Fin/Nack stragglers until all confirm. *)
    | Finished

  type t = {
    reactor : Reactor.t;
    config : config;
    trace : Spe_obs.Trace.t;
    transport : Transport.t;
    parties : Wire.party array;
    program : round:int -> inbox:Runtime.message list -> Runtime.message list;
    max_rounds : int;
    k : int;
    m : int;
    party : Wire.party;
    me : string;
    tracing : bool;
    (* Protocol state. *)
    eors : (int * int, int * int) Hashtbl.t;
    data_count : (int * int, int) Hashtbl.t;
    pending : (int, (int * int * Runtime.message) list) Hashtbl.t;
    seen : (int * int * int, unit) Hashtbl.t;
    cache : (int, (int * bytes) list) Hashtbl.t;
    fins : bool array;
    mutable records : Net_wire.record list;
    outbox : bytes list array;
    (* Execution state. *)
    mutable round : int;
    mutable own_total : int;
    mutable retries : int;
    mutable state : state;
    mutable timer : Reactor.timer option;
    mutable round_start : float;
    wake_posted : bool Atomic.t;  (* coalesces notify -> post storms *)
    on_done : (outcome, exn) Stdlib.result -> unit;
  }

  let index_of t p =
    let rec go i = if i >= t.m then None else if t.parties.(i) = p then Some i else go (i + 1) in
    go 0

  let disarm t =
    match t.timer with
    | Some tm ->
      Reactor.cancel t.reactor tm;
      t.timer <- None
    | None -> ()

  let arm t deadline k =
    disarm t;
    t.timer <- Some (Reactor.at t.reactor deadline k)

  let finish t res =
    if t.state <> Finished then begin
      t.state <- Finished;
      disarm t;
      t.on_done res
    end

  let resend t round dst =
    let bodies =
      List.filter_map
        (fun (d, body) -> if d = dst then Some body else None)
        (List.rev (Option.value ~default:[] (Hashtbl.find_opt t.cache round)))
    in
    if bodies <> [] then begin
      t.transport.Transport.send_many dst bodies;
      Spe_obs.Trace.count t.trace ~party:t.me ~round Spe_obs.Trace.Retransmits
        (List.length bodies)
    end

  let handle t body =
    match Frame.decode body with
    | Frame.Hello _ -> ()
    | Frame.Data { round; seq; src; dst = _; payload } -> (
      match index_of t src with
      | None -> () (* not a group member: ignore *)
      | Some si ->
        let key = (si, round, seq) in
        if not (Hashtbl.mem t.seen key) then begin
          Hashtbl.replace t.seen key ();
          Hashtbl.replace t.data_count (round, si)
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.data_count (round, si)));
          Hashtbl.replace t.pending round
            ((si, seq, { Runtime.src; dst = t.party; payload })
            :: Option.value ~default:[] (Hashtbl.find_opt t.pending round))
        end)
    | Frame.End_of_round { round; sender; total; to_dst } ->
      Hashtbl.replace t.eors (round, sender) (total, to_dst)
    | Frame.Nack { round; sender } -> resend t round sender
    | Frame.Fin { sender } -> if sender >= 0 && sender < t.m then t.fins.(sender) <- true

  let stage_frame t ~round dst frame =
    let body = Frame.encode frame in
    Hashtbl.replace t.cache round
      ((dst, body) :: Option.value ~default:[] (Hashtbl.find_opt t.cache round));
    t.outbox.(dst) <- body :: t.outbox.(dst)

  let flush_outbox t =
    for j = 0 to t.m - 1 do
      match t.outbox.(j) with
      | [] -> ()
      | bodies ->
        t.outbox.(j) <- [];
        t.transport.Transport.send_many j (List.rev bodies)
    done

  let complete t j =
    match Hashtbl.find_opt t.eors (t.round, j) with
    | None -> false
    | Some (_, to_me) ->
      Option.value ~default:0 (Hashtbl.find_opt t.data_count (t.round, j)) >= to_me

  let all_complete t =
    let rec go j = j >= t.m || ((j = t.k || complete t j) && go (j + 1)) in
    go 0

  let starvation t =
    let missing =
      List.filter_map
        (fun j -> if j <> t.k && not (complete t j) then Some t.parties.(j) else None)
        (List.init t.m Fun.id)
    in
    Round_timeout
      {
        party = t.party;
        round = t.round;
        phase = Spe_obs.Trace.phase_of_round t.trace t.round;
        missing;
      }

  (* Pull every frame already delivered.  The callers convert [Closed]
     from the transport: with a retry already on the books for this
     round it becomes the starvation this party had diagnosed — the
     group was torn down after this round had expired a full deadline
     with peers missing, and a sibling won the race to raise first; a
     party progressing normally propagates the [Closed] echo, which
     keeps the pool's root-cause attribution intact. *)
  let drain t =
    let rec go () =
      match t.transport.Transport.try_recv () with
      | Some body ->
        handle t body;
        go ()
      | None -> ()
    in
    go ()

  let all_fins t = Array.for_all Fun.id t.fins

  let complete_run t =
    (* [t.round] is the quiescent finishing round, not a counted one. *)
    finish t (Ok { rounds = t.round - 1; sent = List.rev t.records })

  let rec begin_round t inbox =
    let r = t.round in
    if r > t.max_rounds then finish t (Error (Failure "Endpoint.run: protocol did not terminate"))
    else begin
      if t.tracing then t.round_start <- Spe_obs.Trace.now t.trace;
      match
        let sends =
          if t.tracing then
            Spe_obs.Trace.span t.trace ~party:t.me ~index:r Spe_obs.Trace.Compute "step"
              (fun () -> t.program ~round:r ~inbox)
          else t.program ~round:r ~inbox
        in
        List.iteri
          (fun seq (msg : Runtime.message) ->
            if msg.Runtime.src <> t.party then invalid_arg "Endpoint.run: forged source";
            match index_of t msg.Runtime.dst with
            | None -> invalid_arg "Endpoint.run: message to unknown party"
            | Some di ->
              if di = t.k then invalid_arg "Endpoint.run: self-send";
              let frame =
                Frame.Data
                  { round = r; seq; src = msg.Runtime.src; dst = msg.Runtime.dst;
                    payload = msg.Runtime.payload }
              in
              stage_frame t ~round:r di frame;
              let payload_bytes = Runtime.payload_bits msg.Runtime.payload / 8 in
              let framed_bytes = Frame.framed_length frame in
              if t.tracing then begin
                Spe_obs.Trace.count t.trace ~party:t.me ~round:r Spe_obs.Trace.Messages 1;
                Spe_obs.Trace.count t.trace ~party:t.me ~round:r Spe_obs.Trace.Payload_bytes
                  payload_bytes;
                Spe_obs.Trace.count t.trace ~party:t.me ~round:r Spe_obs.Trace.Framed_bytes
                  framed_bytes
              end;
              t.records <-
                {
                  Net_wire.round = r;
                  src = msg.Runtime.src;
                  dst = msg.Runtime.dst;
                  payload_bytes;
                  framed_bytes;
                }
                :: t.records)
          sends;
        t.own_total <- List.length sends;
        for j = 0 to t.m - 1 do
          if j <> t.k then begin
            let to_dst =
              List.length
                (List.filter
                   (fun (msg : Runtime.message) -> index_of t msg.Runtime.dst = Some j)
                   sends)
            in
            stage_frame t ~round:r j
              (Frame.End_of_round { round = r; sender = t.k; total = t.own_total; to_dst })
          end
        done;
        flush_outbox t
      with
      | () ->
        t.state <- Collecting;
        t.retries <- 0;
        arm t
          (Unix.gettimeofday () +. t.config.round_timeout)
          (fun () -> round_deadline t);
        check_barrier t
      | exception e -> finish t (Error e)
    end

  and check_barrier t =
    if t.state = Collecting then begin
      match drain t with
      | () -> if all_complete t then finish_round t
      | exception Transport.Closed ->
        finish t (Error (if t.retries > 0 then starvation t else Transport.Closed))
      | exception e -> finish t (Error e)
    end

  and round_deadline t =
    if t.state = Collecting then begin
      (* Late frames may already be queued — look before Nacking. *)
      match drain t with
      | exception Transport.Closed ->
        finish t (Error (if t.retries > 0 then starvation t else Transport.Closed))
      | exception e -> finish t (Error e)
      | () ->
        if all_complete t then finish_round t
        else begin
          Spe_obs.Trace.count t.trace ~party:t.me ~round:t.round Spe_obs.Trace.Timeouts 1;
          if t.retries >= t.config.max_retries then finish t (Error (starvation t))
          else begin
            t.retries <- t.retries + 1;
            match
              for j = 0 to t.m - 1 do
                if j <> t.k && not (complete t j) then begin
                  t.transport.Transport.send j
                    (Frame.encode (Frame.Nack { round = t.round; sender = t.k }));
                  Spe_obs.Trace.count t.trace ~party:t.me ~round:t.round Spe_obs.Trace.Nacks 1
                end
              done
            with
            | () ->
              arm t
                (Unix.gettimeofday () +. t.config.round_timeout)
                (fun () -> round_deadline t)
            | exception Transport.Closed -> finish t (Error (starvation t))
            | exception e -> finish t (Error e)
          end
        end
    end

  and finish_round t =
    disarm t;
    let r = t.round in
    if t.tracing then
      Spe_obs.Trace.record_span t.trace ~party:t.me ~index:r Spe_obs.Trace.Round "round"
        ~start:t.round_start ~stop:(Spe_obs.Trace.now t.trace);
    let grand_total =
      List.fold_left
        (fun acc j -> if j = t.k then acc else acc + fst (Hashtbl.find t.eors (r, j)))
        t.own_total
        (List.init t.m Fun.id)
    in
    if grand_total = 0 then begin
      (* Global quiescence, visible to everyone at this same round.
         Confirm, then stay to replay the final barrier for any peer
         that lost frames, leaving early once all have confirmed. *)
      match
        for j = 0 to t.m - 1 do
          if j <> t.k then
            t.transport.Transport.send j (Frame.encode (Frame.Fin { sender = t.k }))
        done
      with
      | exception e -> finish t (Error e)
      | () ->
        t.state <- Lingering;
        arm t (Unix.gettimeofday () +. t.config.linger) (fun () -> complete_run t);
        check_linger t
    end
    else begin
      let inbox' =
        Option.value ~default:[] (Hashtbl.find_opt t.pending r)
        |> List.sort (fun (s1, q1, _) (s2, q2, _) -> compare (s1, q1) (s2, q2))
        |> List.map (fun (_, _, msg) -> msg)
      in
      t.round <- r + 1;
      t.state <- Idle;
      (* Re-enter through the ready queue, not by direct recursion:
         this is the fairness point where sibling machines get the
         loop between rounds. *)
      Reactor.post t.reactor (fun () -> if t.state <> Finished then begin_round t inbox')
    end

  and check_linger t =
    if t.state = Lingering then begin
      match drain t with
      | () -> if all_fins t then complete_run t
      | exception Transport.Closed -> finish t (Error Transport.Closed)
      | exception e -> finish t (Error e)
    end

  let wake t =
    match t.state with
    | Idle -> ()  (* the queued begin_round will drain *)
    | Collecting -> check_barrier t
    | Lingering -> check_linger t
    | Finished -> ()

  let create ~reactor ~config ~trace ~transport ~parties ~program ~max_rounds ~k ~on_done =
    let m = Array.length parties in
    let t =
      {
        reactor;
        config;
        trace;
        transport;
        parties;
        program;
        max_rounds;
        k;
        m;
        party = parties.(k);
        me = Runtime.party_label parties.(k);
        tracing = Spe_obs.Trace.enabled trace;
        eors = Hashtbl.create 16;
        data_count = Hashtbl.create 16;
        pending = Hashtbl.create 16;
        seen = Hashtbl.create 64;
        cache = Hashtbl.create 16;
        fins = Array.make m false;
        records = [];
        outbox = Array.make m [];
        round = 1;
        own_total = 0;
        retries = 0;
        state = Idle;
        timer = None;
        round_start = 0.;
        wake_posted = Atomic.make false;
        on_done;
      }
    in
    t.fins.(k) <- true;
    t

  let start t =
    (* The notify hook may fire from a foreign thread (a daemon's
       connection readers deliver into [Mux] mailboxes); it coalesces
       into at most one queued wake task at a time. *)
    t.transport.Transport.set_notify (fun () ->
        if not (Atomic.exchange t.wake_posted true) then
          Reactor.post t.reactor (fun () ->
              Atomic.set t.wake_posted false;
              wake t));
    Reactor.post t.reactor (fun () -> if t.state <> Finished then begin_round t [])
end

(* Run a whole group as machines on [reactor]; [on_done] fires exactly
   once, with the result or the root-cause failure.  Any failure closes
   the whole group so the sibling machines unwind promptly. *)
let run_group_async ~reactor ~config ~trace ~transports ~parties ~programs ~max_rounds
    ~on_done =
  let m = Array.length parties in
  if Array.length transports <> m || Array.length programs <> m then
    invalid_arg "Endpoint: one transport and one program per party";
  let outcomes = Array.make m None in
  let errors = Array.make m None in
  let remaining = ref m in
  let close_all () =
    Array.iter (fun (t : Transport.t) -> try t.Transport.close () with _ -> ()) transports
  in
  let conclude () =
    let transport_bytes =
      Array.fold_left (fun acc (t : Transport.t) -> acc + t.Transport.sent_bytes ()) 0 transports
    in
    close_all ();
    (* Surface the root cause, not the Closed cascade it triggered.  Two
       parties can time out in the same run — the starved one, and a
       peer that then starved waiting for it one round later — so among
       timeouts the earliest round is the diagnosis, not the echo. *)
    let better a b =
      match (a, b) with
      | Round_timeout { round = ra; _ }, Round_timeout { round = rb; _ } -> ra < rb
      | _ -> false
    in
    let root, any =
      Array.fold_left
        (fun (root, any) e ->
          match e with
          | None -> (root, any)
          | Some Transport.Closed -> (root, if any = None then e else any)
          | Some err ->
            let root =
              match root with
              | None -> e
              | Some r -> if better err r then e else root
            in
            (root, if any = None then e else any))
        (None, None) errors
    in
    match (root, any) with
    | Some e, _ -> on_done (Error e)
    | None, Some e -> on_done (Error e)
    | None, None ->
      on_done (Ok { outcomes = Array.map Option.get outcomes; transport_bytes })
  in
  let finish_one k res =
    (match res with
    | Ok o -> outcomes.(k) <- Some o
    | Error e ->
      errors.(k) <- Some e;
      (* Tear the group down so the sibling machines unwind promptly. *)
      close_all ());
    decr remaining;
    if !remaining = 0 then conclude ()
  in
  let machines =
    Array.init m (fun k ->
        Machine.create ~reactor ~config ~trace ~transport:transports.(k) ~parties
          ~program:programs.(k) ~max_rounds ~k ~on_done:(finish_one k))
  in
  Array.iter Machine.start machines

(* Drive one group to completion on a private reactor owned by the
   calling thread. *)
let run_group_reactor ~config ~trace ~reactor ~transports ~parties ~programs ~max_rounds () =
  let result = ref None in
  run_group_async ~reactor ~config ~trace ~transports ~parties ~programs ~max_rounds
    ~on_done:(fun r -> result := Some r);
  Fun.protect
    ~finally:(fun () -> Reactor.destroy reactor)
    (fun () -> Reactor.run reactor ~until:(fun () -> !result <> None));
  match Option.get !result with Ok r -> r | Error e -> raise e

let run_memory ?(config = default_config) ?fault ?(trace = Spe_obs.Trace.disabled ())
    ~parties ~programs ~max_rounds () =
  let reactor = Reactor.create () in
  let transports =
    Transport.Memory.reactor_group ?fault ~trace ~reactor ~m:(Array.length parties) ()
  in
  run_group_reactor ~config ~trace ~reactor ~transports ~parties ~programs ~max_rounds ()

let run_socket ?(config = default_config) ?addresses ?fault
    ?(trace = Spe_obs.Trace.disabled ()) ~parties ~programs ~max_rounds () =
  let addresses =
    match addresses with
    | Some a -> a
    | None -> Transport.Socket.temp_unix_addresses ~m:(Array.length parties)
  in
  let reactor = Reactor.create () in
  let transports = Transport.Socket.reactor_group ?fault ~trace ~reactor ~addresses () in
  run_group_reactor ~config ~trace ~reactor ~transports ~parties ~programs ~max_rounds ()

(* One seat of a session as a reactor task chain, for hosts (the serve
   daemons) that already own a reactor and drive the other seats'
   frames in over a {!Mux}.  The phase map is installed even on a
   disabled trace so a [Round_timeout] can name its phase. *)
let run_party_async ?(config = default_config) ?(trace = Spe_obs.Trace.disabled ()) ~reactor
    ~transport ~(session : _ Session.t) ~index ~on_done () =
  let m = Array.length session.Session.parties in
  if index < 0 || index >= m then invalid_arg "Endpoint.run_party_async: index out of range";
  Spe_obs.Trace.set_phases trace session.Session.phases;
  let machine =
    Machine.create ~reactor ~config ~trace ~transport ~parties:session.Session.parties
      ~program:session.Session.programs.(index)
      ~max_rounds:(session.Session.rounds + 1)
      ~k:index
      ~on_done:(fun res ->
        match res with
        | Error _ as e -> on_done e
        | Ok outcome ->
          if outcome.rounds <> session.Session.rounds then
            on_done
              (Error
                 (Failure
                    (Printf.sprintf "Endpoint.run_party_async: declared %d rounds but executed %d"
                       session.Session.rounds outcome.rounds)))
          else on_done (Ok outcome))
  in
  Machine.start machine

(* A session declares its exact round count; enforce it like
   Session.run does, so a mis-declared session cannot silently
   desynchronise a composed pipeline on a transport engine either. *)
let check_session_rounds (session : _ Session.t) result =
  let executed = Array.fold_left (fun acc o -> max acc o.rounds) 0 result.outcomes in
  if executed <> session.Session.rounds then
    failwith
      (Printf.sprintf "Endpoint.run_session: declared %d rounds but executed %d"
         session.Session.rounds executed)

let run_session_memory ?config ?fault ?(trace = Spe_obs.Trace.disabled ()) session =
  Spe_obs.Trace.set_phases trace session.Session.phases;
  let result =
    Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
        run_memory ?config ?fault ~trace ~parties:session.Session.parties
          ~programs:session.Session.programs ~max_rounds:(session.Session.rounds + 1) ())
  in
  check_session_rounds session result;
  (session.Session.result (), result)

let run_session_socket ?config ?addresses ?fault ?(trace = Spe_obs.Trace.disabled ()) session =
  Spe_obs.Trace.set_phases trace session.Session.phases;
  let result =
    Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
        run_socket ?config ?addresses ?fault ~trace ~parties:session.Session.parties
          ~programs:session.Session.programs ~max_rounds:(session.Session.rounds + 1) ())
  in
  check_session_rounds session result;
  (session.Session.result (), result)

(* --- The shard worker pool ---------------------------------------------------- *)

exception Shard_failed of { shard : int; phase : string option; exn : exn }
exception Worker_killed

let () =
  Printexc.register_printer (function
    | Shard_failed { shard; phase; exn } ->
      Some
        (Printf.sprintf "Endpoint.Shard_failed: shard %d%s failed: %s" shard
           (match phase with Some p -> Printf.sprintf " (phase %s)" p | None -> "")
           (Printexc.to_string exn))
    | Worker_killed -> Some "Endpoint.Worker_killed"
    | _ -> None)

let pool_defaults ?workers ?traces ns =
  let workers = match workers with Some j -> j | None -> ns in
  let traces =
    match traces with
    | Some t -> t
    | None -> Array.init ns (fun _ -> Spe_obs.Trace.disabled ())
  in
  if Array.length traces <> ns then
    invalid_arg "Endpoint.run_sessions: one trace per session";
  (workers, traces)

let pool_faults ~who ?faults ?kills ns =
  let faults = match faults with Some f -> f | None -> Array.make ns None in
  if Array.length faults <> ns then
    invalid_arg (Printf.sprintf "Endpoint.%s: one fault spec per session" who);
  let kills = match kills with Some k -> k | None -> Array.make ns false in
  if Array.length kills <> ns then
    invalid_arg (Printf.sprintf "Endpoint.%s: one kill flag per session" who);
  (faults, kills)

(* The shard pool: shard sessions are claimed in index order, each on
   its own fresh connection group, and every concurrent one is a set of
   machines on one reactor — [workers] bounds the shard sessions in
   flight, not a thread count, and the whole pool runs on the calling
   thread.  On any shard failure every open sibling group is closed so
   its machines unwind promptly instead of waiting out their
   timeouts. *)
let run_pool_reactor ~workers ~config ~kills ~traces ~make_transports
    (sessions : _ Session.t array) =
  let ns = Array.length sessions in
  let results = Array.make ns None in
  let errors = Array.make ns None in
  let reactor = Reactor.create () in
  let next = ref 0 in
  let stopped = ref false in
  let outstanding = ref 0 in
  let open_groups : (int, Transport.t array) Hashtbl.t = Hashtbl.create 8 in
  let close_group ts =
    Array.iter (fun (t : Transport.t) -> try t.Transport.close () with _ -> ()) ts
  in
  let cancel_all () =
    stopped := true;
    let groups = Hashtbl.fold (fun _ ts acc -> ts :: acc) open_groups [] in
    List.iter close_group groups
  in
  let nworkers = max 1 (min workers (max 1 ns)) in
  let fail_shard s e =
    let phase = match e with Round_timeout { phase; _ } -> phase | _ -> None in
    errors.(s) <- Some (Shard_failed { shard = s; phase; exn = e });
    cancel_all ()
  in
  let rec launch () =
    if (not !stopped) && !next < ns && !outstanding < nworkers then begin
      let s = !next in
      incr next;
      start_one s;
      launch ()
    end
  and start_one s =
    let session = sessions.(s) in
    let trace = traces.(s) in
    Spe_obs.Trace.set_phases trace session.Session.phases;
    match make_transports ~reactor s ~m:(Array.length session.Session.parties) ~trace with
    | exception e -> fail_shard s e
    | transports ->
      Hashtbl.replace open_groups s transports;
      if !stopped then begin
        Hashtbl.remove open_groups s;
        close_group transports
      end
      else if kills.(s) then begin
        (* The kill hook fires after the group is registered, so the
           teardown path it exercises is the real one: the dead
           shard's siblings are cancelled and the pool attributes the
           failure to this shard. *)
        Hashtbl.remove open_groups s;
        close_group transports;
        fail_shard s Worker_killed
      end
      else begin
        let tracing = Spe_obs.Trace.enabled trace in
        let session_start = if tracing then Spe_obs.Trace.now trace else 0. in
        incr outstanding;
        run_group_async ~reactor ~config ~trace ~transports
          ~parties:session.Session.parties ~programs:session.Session.programs
          ~max_rounds:(session.Session.rounds + 1)
          ~on_done:(fun res ->
            decr outstanding;
            Hashtbl.remove open_groups s;
            close_group transports;
            (match res with
            | Ok result -> (
              match
                if tracing then
                  Spe_obs.Trace.record_span trace Spe_obs.Trace.Session "session"
                    ~start:session_start ~stop:(Spe_obs.Trace.now trace);
                check_session_rounds session result;
                (session.Session.result (), result)
              with
              | r -> results.(s) <- Some r
              | exception e -> fail_shard s e)
            | Error e -> fail_shard s e);
            launch ())
      end
  in
  launch ();
  Fun.protect
    ~finally:(fun () -> Reactor.destroy reactor)
    (fun () ->
      Reactor.run reactor ~until:(fun () -> !outstanding = 0 && (!stopped || !next >= ns)));
  (* Surface the root cause, not the Closed cascade the teardown
     triggered in the sibling groups.  A killed shard outranks any
     timeout: the kill is the cause, a sibling that starved while the
     pool tore down is the echo. *)
  let root, any =
    Array.fold_left
      (fun (root, any) e ->
        match e with
        | None -> (root, any)
        | Some (Shard_failed { exn = Transport.Closed; _ }) ->
          (root, if any = None then e else any)
        | Some _ ->
          let root =
            match (root, e) with
            | None, _ -> e
            | Some (Shard_failed { exn = Worker_killed; _ }), _ -> root
            | Some _, Some (Shard_failed { exn = Worker_killed; _ }) -> e
            | _ -> root
          in
          (root, if any = None then e else any))
      (None, None) errors
  in
  (match (root, any) with
  | Some e, _ -> raise e
  | None, Some e -> raise e
  | None, None -> ());
  Array.map Option.get results

let run_sessions_memory ?(config = default_config) ?workers ?faults ?kills ?traces sessions =
  let ns = Array.length sessions in
  let workers, traces = pool_defaults ?workers ?traces ns in
  let faults, kills = pool_faults ~who:"run_sessions_memory" ?faults ?kills ns in
  run_pool_reactor ~workers ~config ~kills ~traces
    ~make_transports:(fun ~reactor s ~m ~trace ->
      Transport.Memory.reactor_group ?fault:faults.(s) ~trace ~reactor ~m ())
    sessions

let run_sessions_socket ?(config = default_config) ?workers ?faults ?kills ?traces sessions =
  let ns = Array.length sessions in
  let workers, traces = pool_defaults ?workers ?traces ns in
  let faults, kills = pool_faults ~who:"run_sessions_socket" ?faults ?kills ns in
  (* Socketpair groups: a fresh connection group per shard session is
     the pool's contract, and at that rate the addressed rendezvous
     would cost more than the latency overlap sharding buys back. *)
  run_pool_reactor ~workers ~config ~kills ~traces
    ~make_transports:(fun ~reactor s ~m ~trace ->
      Transport.Socket.reactor_group_local ?fault:faults.(s) ~trace ~reactor ~m ())
    sessions
