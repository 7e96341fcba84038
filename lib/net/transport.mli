(** The transport interface: what an {!Endpoint} machine needs from the
    world.

    A transport value is one endpoint's view of a fully-connected group
    of [peers] endpoints indexed [0 .. peers - 1]: it can push a frame
    body to any peer and take the next inbound frame body once its
    notify hook says one has arrived.  Every group is owned by a
    {!Reactor}: sends, receives, fault timers and teardown all run on
    the loop thread.  Two backends implement it — {!Memory} (queues on
    the loop, no syscalls, optional fault injection) and {!Socket}
    (real Unix-domain or TCP stream sockets, one length-prefixed frame
    stream per connection).

    Both backends share one sending path and one inbox, so they account
    [sent_bytes] identically — every frame costs
    [Frame.length_prefix_bytes + body length], which on the socket
    backend is literally the bytes written — and take the same fault
    decisions: a frame is charged {e before} its policy decides, a
    [Drop] or [Delay] is charged once and a [Duplicate] twice. *)

exception Closed
(** Raised by [send] and [try_recv] once the transport is closed — the
    group is tearing down (a peer failed or the run ended). *)

type t = {
  self : int;  (** This endpoint's index in the group. *)
  peers : int;  (** Group size [m]; valid destinations are [0 .. m-1]. *)
  send : int -> bytes -> unit;
      (** [send dst body] transmits a frame body to peer [dst].
          Raises [Closed] after {!close}; raises [Invalid_argument] on
          a bad destination. *)
  send_many : int -> bytes list -> unit;
      (** [send_many dst bodies] transmits the frame bodies in order to
          peer [dst], equivalent to [List.iter (send dst) bodies] —
          same per-frame byte accounting, same per-frame fault
          decisions — but batched into one transport operation (one
          buffered write on {!Socket}, one notify on {!Memory}).
          [send_many dst []] is a no-op. *)
  try_recv : unit -> bytes option;
      (** The next inbound frame body if one is already queued, [None]
          otherwise.  Raises [Closed] once the transport is closed and
          its queue is drained.  Paired with {!set_notify}, so a
          machine only looks when there is something to see. *)
  set_notify : (unit -> unit) -> unit;
      (** Install the delivery hook (replacing any previous one): it
          fires after every delivery burst into this endpoint's queue
          and once on close.  On the group backends it fires on the
          loop thread; a {!Mux} session may fire it from a daemon's
          connection thread.  The endpoint machines install a hook
          that posts a wake task to their reactor, which is
          thread-safe. *)
  close : unit -> unit;  (** Idempotent; closes the whole group. *)
  sent_bytes : unit -> int;
      (** Framed bytes this endpoint has transmitted so far, length
          prefixes included (retransmissions count; faults do not
          refund). *)
}

module Memory : sig
  val reactor_group :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> reactor:Reactor.t -> m:int -> unit -> t array
  (** A fully-connected group of [m] in-memory endpoints owned by
      [reactor]: a send pushes onto the receiver's queue and fires its
      notify hook, and a {!Fault.Delay} holds its frame on a reactor
      timer (swallowed if the group closed meanwhile).  Frames pass
      through [fault] (default {!Fault.none}).  Closing any member
      closes the whole group.  All operations must run on the reactor
      thread.

      When [trace] is recording, every send increments the
      [Transport_bytes] counter by its full framed cost and every fault
      decision records a [Faults_dropped]/[Faults_delayed] count plus a
      note — endpoints are labelled ["#i"] by group index, the only
      identity this layer has. *)
end

module Socket : sig
  type address =
    | Unix_domain of string  (** Socket file path (created, not unlinked). *)
    | Tcp of string * int  (** Host, port — loopback in tests. *)

  val reactor_group_local :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> reactor:Reactor.t -> m:int -> unit -> t array
  (** A fully-connected group over kernel [socketpair]s, every
      descriptor owned by [reactor]: reads happen in a buffer-reusing
      readiness callback, writes are buffered and drained by a
      send-flush continuation when the socket is writable, and a
      {!Fault.Delay} holds its frame on a reactor timer.  No listener,
      no Hello exchange and no rendezvous path, so [sent_bytes] starts
      at zero.  The shard pool uses this: one fresh group per shard
      session makes an addressed handshake a per-shard tax.  All
      operations (including [close]) must run on the reactor thread;
      closing any member shuts every socket of the group. *)

  val reactor_group :
    ?fault:Fault.t ->
    ?trace:Spe_obs.Trace.t ->
    reactor:Reactor.t ->
    addresses:address array ->
    unit ->
    t array
  (** A fully-connected group over real stream sockets: endpoint [i]
      listens on [addresses.(i)] and every pair is connected once (the
      higher index dials the lower and introduces itself with a
      {!Frame.Hello}).  Setup is a fixed blocking syscall sequence run
      before the loop starts; then the connections are handed to
      [reactor] exactly as in {!reactor_group_local}.  The endpoints
      live in one process but share no state other than the sockets —
      each sees only bytes.

      When [trace] is recording, every byte written — handshake frames
      at dial time included — lands on the [Transport_bytes] counter,
      labelled ["#i"] by group index.  [fault] (default {!Fault.none})
      applies the per-frame policy with the accounting described
      above; handshake frames are never subject to faults. *)

  val temp_unix_addresses : m:int -> address array
  (** Fresh Unix-domain socket paths in a private temporary directory,
      for tests and the CLI. *)

  (** {2 Raw stream-socket helpers}

      The length-prefixed frame discipline of this backend, exposed for
      layers that run their own connections — the [Spe_serve] daemon
      mesh speaks exactly these frames, so its byte accounting composes
      with the group transports'. *)

  val sockaddr_of : address -> Unix.sockaddr
  (** The [Unix] address for {!address}.  Raises [Failure] on a TCP
      host that is not a literal IP address. *)

  val write_frame : Unix.file_descr -> bytes -> unit
  (** Write one frame body with its length prefix, atomically with
      respect to other [write_frame] calls on the same descriptor only
      if the caller serialises them. *)

  val read_frame : Unix.file_descr -> bytes option
  (** Read one length-prefixed frame body; [None] on clean EOF before
      the first byte, [Failure] on a torn stream, [Closed] on a length
      prefix with the sign bit set.  The caller owns the descriptor
      and closes it. *)

  val split_frames : bytes -> off:int -> len:int -> (bytes -> unit) -> int
  (** [split_frames buf ~off ~len deliver] hands every complete frame
      body in [buf.(off) .. buf.(off + len - 1)] to [deliver], in
      order, and returns the bytes consumed; a split frame's tail is
      left for the next read.  Raises [Closed] at a length prefix with
      the sign bit set, after delivering the frames before it.  The
      group backend reads its connections through it. *)
end
