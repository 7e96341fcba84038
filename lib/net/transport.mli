(** The transport interface: what an {!Endpoint} needs from the world.

    A transport value is one endpoint's view of a fully-connected group
    of [peers] endpoints indexed [0 .. peers - 1]: it can push a frame
    body to any peer and pull the next inbound frame body, with a
    deadline.  Two backends implement it — {!Memory} (deterministic
    in-process channels with optional fault injection) and {!Socket}
    (real Unix-domain or TCP stream sockets, one length-prefixed frame
    stream per connection).

    Both backends account [sent_bytes] identically — every frame costs
    [Frame.length_prefix_bytes + body length], which on the socket
    backend is literally the bytes written — so byte measurements are
    comparable across backends. *)

exception Closed
(** Raised by {!send} and {!recv} once the transport is closed — the
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
          decisions on both backends — but batched into one transport
          operation (one locked write on {!Socket}, one mailbox lock on
          {!Memory}).  [send_many dst []] is a no-op. *)
  recv : deadline:float -> bytes option;
      (** Next inbound frame body, from any peer; [None] once
          [Unix.gettimeofday () >= deadline] with nothing pending.
          The wait is a parked condition-variable-style wait (no
          polling): a push on the far side wakes it immediately.
          Raises [Closed] after {!close}.  On a reactor transport
          (where blocking the loop thread would deadlock the group)
          this raises [Invalid_argument] — use {!try_recv}. *)
  try_recv : unit -> bytes option;
      (** The non-blocking readiness interface: the next inbound frame
          body if one is already queued, [None] otherwise.  Raises
          [Closed] once the transport is closed.  This is what the
          event-driven endpoint machines use — paired with
          {!set_notify} so they only look when there is something to
          see. *)
  set_notify : (unit -> unit) -> unit;
      (** Install the delivery hook (replacing any previous one): it
          fires after every frame delivery into this endpoint's queue
          and once on close.  It may fire from a foreign thread (a
          socket reader, a daemon connection thread); the endpoint
          machines install a hook that posts a wake task to their
          reactor, which is thread-safe. *)
  close : unit -> unit;  (** Idempotent. *)
  sent_bytes : unit -> int;
      (** Framed bytes this endpoint has transmitted so far, length
          prefixes included (retransmissions count; faults do not
          refund). *)
}

module Memory : sig
  val create_group : ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> m:int -> unit -> t array
  (** A fully-connected group of [m] in-memory endpoints.  Frames pass
      through [fault] (default {!Fault.none}); delayed frames are
      delivered by a helper thread after their hold time.  Closing any
      member closes the whole group.

      When [trace] is recording, every send increments the
      [Transport_bytes] counter by its full framed cost and every fault
      decision records a [Faults_dropped]/[Faults_delayed] count plus a
      note — endpoints are labelled ["#i"] by group index, the only
      identity this layer has.  A {!Fault.Duplicate} decision charges
      and delivers the frame twice; drops and delays charge the frame
      once *before* the decision, so the framing closed form holds on
      faulted paths too. *)
end

module Socket : sig
  type address =
    | Unix_domain of string  (** Socket file path (created, not unlinked). *)
    | Tcp of string * int  (** Host, port — loopback in tests. *)

  val create_group :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> addresses:address array -> unit -> t array
  (** A fully-connected group over real stream sockets: endpoint [i]
      listens on [addresses.(i)], every pair is connected once (the
      higher index dials the lower and introduces itself with a
      {!Frame.Hello}), and one poller thread multiplexes every
      connection of the group into the receiver queues.  The endpoints
      live in one process but share no state other than the sockets —
      each sees only bytes.  Closing any member shuts every socket
      down; the poller reclaims the descriptors once it has drained
      them, so no send can race a close into a reused descriptor.

      When [trace] is recording, every byte written — handshake frames
      at dial time included — lands on the [Transport_bytes] counter,
      labelled ["#i"] by group index.

      [fault] (default {!Fault.none}) applies the same per-frame policy
      the memory backend applies, with identical accounting: the frame
      is charged before the decision, a [Drop] skips the write, a
      [Delay] performs the write from a helper thread after the hold
      time (swallowed if the group closed meanwhile), and a [Duplicate]
      writes and charges the frame twice.  Handshake frames are never
      subject to faults. *)

  val create_group_local :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> m:int -> unit -> t array
  (** Like {!create_group} but every pair is joined by a kernel
      [socketpair] instead of a dialled connection: same stream
      sockets, frames, poller and teardown, but no listener, no Hello
      exchange and no rendezvous path — so [sent_bytes] starts at zero
      rather than at the handshake cost.  The shard pool uses this:
      one fresh group per shard session makes the addressed handshake
      a per-shard tax that a socketpair group avoids. *)

  val reactor_group_local :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> reactor:Reactor.t -> m:int -> unit -> t array
  (** The event-driven twin of {!create_group_local}: the same
      socketpair mesh, frames and fault/byte accounting, but every
      descriptor is owned by [reactor] — reads happen in a
      buffer-reusing readiness callback, writes are buffered and
      drained by a send-flush continuation when the socket is
      writable, and a {!Fault.Delay} holds its frame on a reactor
      timer instead of a helper thread.  The returned transports
      support only the non-blocking interface: [recv] raises
      [Invalid_argument]; drive them with [try_recv]/[set_notify] from
      the reactor thread.  All operations (including [close]) must run
      on the reactor thread. *)

  val reactor_group :
    ?fault:Fault.t ->
    ?trace:Spe_obs.Trace.t ->
    reactor:Reactor.t ->
    addresses:address array ->
    unit ->
    t array
  (** The event-driven twin of {!create_group}: identical addressed
      rendezvous and Hello byte accounting (setup itself is still a
      fixed blocking syscall sequence, before the loop starts), then
      the connections are handed to [reactor] exactly as in
      {!reactor_group_local}. *)

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
      the sign bit set, after delivering the frames before it.  Both
      group engines read their connections through it. *)
end
