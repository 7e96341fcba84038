(** Hosting {!Spe_mpc.Runtime.program}s over a real transport.

    {!Spe_mpc.Runtime.run} routes party closures through an in-process
    hash table; this module moves the same programs over byte streams.
    Each party of a session runs as a resumable state machine on a
    {!Reactor} — one loop thread carries every party of every session
    in flight — and the two engines differ only in the transport
    underneath: {!Transport.Memory} queues (the memory engine: the
    reactor without syscalls) or {!Transport.Socket} connections.  The
    central [Driver] and {!Spe_mpc.Session.run} are the differential
    oracles both engines are held to.  The round discipline is kept
    by an [End_of_round] barrier: after stepping, a party tells every
    peer how many data frames it sent that round (in total, and to that
    peer specifically), and a party steps round [r + 1] only once it
    holds the barrier frame and the promised data from all peers.
    A round in which no party sent anything is globally visible through
    the barrier counts, so every endpoint terminates on the same round
    — exactly the engine's quiescence rule, and like the engine the
    quiescent round is not charged.

    Loss is handled by receiver-driven retransmission: a party whose
    round fails to complete within [round_timeout] Nacks the incomplete
    peers, who replay their cached frames for that round; after
    [max_retries] fruitless timeouts the party raises {!Round_timeout}
    instead of hanging, and the whole group is torn down. *)

type config = {
  round_timeout : float;
      (** Seconds to wait for a round barrier before Nacking. *)
  max_retries : int;  (** Nack rounds before giving up. *)
  linger : float;
      (** Seconds a quiescent endpoint stays around to serve
          retransmissions of its final barrier (it leaves early once
          every peer has confirmed termination). *)
}

val default_config : config
(** 2 s round timeout, 3 retries, 5 s linger (the linger exceeds a
    round timeout so a quiescent endpoint outlives a lossy peer's first
    Nack). *)

exception Round_timeout of {
  party : Spe_mpc.Wire.party;
  round : int;
  phase : string option;
      (** The pipeline phase owning [round], read from the trace's
          phase map — so a stuck socket run reports ["p4-mask"] rather
          than a bare round number.  [None] when no phase map was
          installed (e.g. {!run_memory} on raw programs). *)
  missing : Spe_mpc.Wire.party list;  (** Peers that never completed the round. *)
}
(** A registered [Printexc] printer renders the full context:
    ["Endpoint.Round_timeout: P1 timed out in round 3 (phase p4-mask)
    waiting on Host"]. *)

type outcome = {
  rounds : int;  (** Non-quiescent rounds executed — the NR statistic. *)
  sent : Net_wire.record list;
      (** This endpoint's first-transmission log, in send order. *)
}

type result = {
  outcomes : outcome array;  (** One per endpoint, in party order. *)
  transport_bytes : int;
      (** Total framed bytes actually transmitted by the group —
          payloads, framing, barriers, handshakes, retransmissions. *)
}

val run_party_async :
  ?config:config ->
  ?trace:Spe_obs.Trace.t ->
  reactor:Reactor.t ->
  transport:Transport.t ->
  session:'r Spe_mpc.Session.t ->
  index:int ->
  on_done:((outcome, exn) Stdlib.result -> unit) ->
  unit ->
  unit
(** Drive exactly one seat of a session as a resumable state machine
    on [reactor] — parked between events, woken by the transport's
    delivery hook, its round deadlines kept by reactor timers — over a
    caller-supplied transport whose group indices match the session's
    party order.  This is the building block for deployments where the
    other seats live in other processes ([Spe_serve] daemons over a
    session-multiplexed connection mesh, {!Mux}): a daemon runs every
    seat of every concurrent session on one loop thread.  Must be
    called from the reactor thread.  Installs the session's phase map
    on [trace]; [on_done] fires exactly once, on the reactor thread,
    with the outcome or with the failure ({!Round_timeout},
    [Transport.Closed], [Failure] when the executed round count
    differs from the declared one, ...).  The session's result thunk
    is {e not} called: only the seat that owns the result state can
    read it. *)

val run_memory :
  ?config:config ->
  ?fault:Fault.t ->
  ?trace:Spe_obs.Trace.t ->
  parties:Spe_mpc.Wire.party array ->
  programs:Spe_mpc.Runtime.program array ->
  max_rounds:int ->
  unit ->
  result
(** Drive one program per party, each as a machine on a private
    {!Reactor} the calling thread runs, over a fresh
    {!Transport.Memory} group, until global quiescence.  Mirrors the
    engine's contract: raises [Failure "Endpoint.run: protocol did not
    terminate"] past [max_rounds], [Invalid_argument] on a forged
    source or a message to an unknown party, {!Round_timeout} when a
    peer stays silent.  Any failure closes the whole group, so the
    remaining machines unwind promptly instead of waiting out their
    timeouts, and the raised exception is the root cause (among
    timeouts the earliest round), not the [Transport.Closed] cascade.

    [fault] and [trace] are shared with the transports, so fault
    decisions and transport bytes land in the same event stream.  When
    [trace] is recording, every machine records into it: a [Round]
    span per charged round (local step in a nested [Compute] span),
    [Messages]/[Payload_bytes]/[Framed_bytes] counts per data frame
    first transmitted — byte-for-byte what lands in
    {!Net_wire.record}s — plus [Retransmits], [Nacks] and [Timeouts]
    as the loss recovery machinery fires. *)

val run_socket :
  ?config:config ->
  ?addresses:Transport.Socket.address array ->
  ?fault:Fault.t ->
  ?trace:Spe_obs.Trace.t ->
  parties:Spe_mpc.Wire.party array ->
  programs:Spe_mpc.Runtime.program array ->
  max_rounds:int ->
  unit ->
  result
(** The {!run_memory} contract over a fresh addressed
    {!Transport.Socket.reactor_group} (fresh Unix-domain sockets in a
    temporary directory unless [addresses] says otherwise); the socket
    engine takes the same per-frame fault policies the memory engine
    does, and the transport bytes add one Hello per connection. *)

val run_session_memory :
  ?config:config ->
  ?fault:Fault.t ->
  ?trace:Spe_obs.Trace.t ->
  'r Spe_mpc.Session.t ->
  'r * result
(** Host a composed {!Spe_mpc.Session} on memory-channel endpoints and
    read its result.  Like {!Spe_mpc.Session.run}, raises [Failure] if
    the executed round count differs from the session's declared
    {!Spe_mpc.Session.rounds}.

    The session's {!Spe_mpc.Session.phases} map is installed on
    [trace] (even a non-recording one — {!Round_timeout} reads it for
    its [phase] field) and the whole run is wrapped in a [Session]
    span. *)

val run_session_socket :
  ?config:config ->
  ?addresses:Transport.Socket.address array ->
  ?fault:Fault.t ->
  ?trace:Spe_obs.Trace.t ->
  'r Spe_mpc.Session.t ->
  'r * result
(** {!run_session_memory} over fresh Unix-domain sockets. *)

exception Shard_failed of {
  shard : int;  (** Index of the failed session in the pool's array. *)
  phase : string option;
      (** The phase a {!Round_timeout} named, when that was the cause. *)
  exn : exn;  (** The underlying failure. *)
}
(** Raised by the worker pool when one of its sessions fails; the pool
    closes every sibling connection group before re-raising, and the
    surfaced shard is the {e root cause} (a shard that died of
    [Transport.Closed] because the pool tore it down is only reported
    when nothing better is known).  A registered [Printexc] printer
    renders ["Endpoint.Shard_failed: shard 2 (phase p4-mask) failed:
    ..."]. *)

exception Worker_killed
(** The injected worker-death fault: a pool session whose [kills] flag
    is set fails with this immediately after its connection group is
    registered, surfacing as {!Shard_failed} with this
    exception inside.  In root-cause selection a killed worker outranks
    any {!Round_timeout}: the sibling that starved while the pool tore
    down is the echo, not the cause.  Only the chaos harness sets kill
    flags; production pools never see this exception. *)

val run_sessions_memory :
  ?config:config ->
  ?workers:int ->
  ?faults:Fault.t option array ->
  ?kills:bool array ->
  ?traces:Spe_obs.Trace.t array ->
  'r Spe_mpc.Session.t array ->
  ('r * result) array
(** Drive an array of mutually independent sessions — one {!Plan}
    stage's shards — with at most [workers] shard sessions in flight
    (default: all of them) on one {!Reactor} the calling thread runs,
    so k shards cost k sets of state machines, not threads.  Each
    claimed session runs on its own fresh {!Transport.Memory} group
    with the full {!run_session_memory} contract (phase map installed, [Session] span, declared-rounds
    check).  Results are in session order.  [faults], [kills] and
    [traces], when given, must have one entry per session
    ([Invalid_argument] otherwise); a session whose kill flag is set
    raises {!Worker_killed} instead of running (the chaos harness's
    worker-death fault).  On any failure the pool cancels the
    remaining work, closes all open sibling groups, and raises
    {!Shard_failed} naming the root-cause shard ({!Worker_killed}
    outranks timeouts, [Transport.Closed] is the echo) — it never
    hangs on a stalled shard. *)

val run_sessions_socket :
  ?config:config ->
  ?workers:int ->
  ?faults:Fault.t option array ->
  ?kills:bool array ->
  ?traces:Spe_obs.Trace.t array ->
  'r Spe_mpc.Session.t array ->
  ('r * result) array
(** The {!run_sessions_memory} contract over fresh socketpair groups
    ({!Transport.Socket.reactor_group_local}), with the same
    per-session [faults] and [kills] hooks. *)
