(** One long-lived party daemon — the process behind [spe serve].

    A daemon is one seat of the deployment (H is daemon 0, P_k is
    daemon k), listening on its roster address.  The connection mesh is
    established once — daemon d dials every lower id and accepts the
    higher ones, one {!Serve_proto.t.Hello} exchange per connection —
    and all later traffic (job control and session-tagged inner
    protocol frames) multiplexes over it, so the per-session rendezvous
    tax of addressed socket groups is paid once per deployment.

    Clients connect to H and submit {!Serve_proto.spec}s.  H owns
    admission (a bounded {!Scheduler} past which submissions get the
    typed [Busy] reply); each admitted job is broadcast to the provider
    daemons, every daemon deterministically rebuilds the identical plan
    from [(spec, workload)], runs its own seats over the mux, and H
    answers the client with the merged result — or a typed
    {!Serve_proto.reply.Failed} naming what went wrong.  A peer daemon
    dying mid-round surfaces as [Peer_down]/[Round_timeout] at every
    client, never a hang, and the daemon keeps accepting jobs. *)

type config = {
  party : int;  (** Daemon id: 0 = H, k = P_k. *)
  roster : Addr.t array;  (** Address by daemon id, H first. *)
  listen : Addr.t option;  (** Bind override; default [roster.(party)]. *)
  max_sessions : int;  (** Concurrent jobs in flight at H (admission bound). *)
  max_queue : int;  (** Bounded admission queue at H. *)
  metrics_addr : Addr.t option;  (** Scrape endpoint; also enables tracing. *)
  round_timeout : float;
  linger : float;
  dial_timeout : float;  (** How long to keep retrying the mesh dial. *)
}

val default_config : party:int -> roster:Addr.t array -> config
(** max_sessions 4, max_queue 64, compute-friendly 300 s round timeout
    (connection deaths are detected by reader EOF, not timeout). *)

type t

val start : config -> Job.workload -> t
(** Bind, start accepting, dial the mesh (retrying up to
    [dial_timeout]), and start the worker pool.  Raises [Failure] with
    a clean message if a peer cannot be reached or loaded a different
    workload. *)

val stop : t -> unit
(** Begin graceful shutdown: refuse the queued jobs with typed replies,
    drain the running ones, then close every connection.  Idempotent;
    returns immediately — {!wait} observes completion. *)

val wait : t -> unit
(** Block until the daemon has fully shut down (someone sent the wire
    [Shutdown], or {!stop} was called). *)

val run : config -> Job.workload -> unit
(** [start] then [wait] — the CLI's serve loop. *)

val spawn : config -> Job.workload -> int
(** Fork a child process running {!run}; returns the pid.  The child
    [Unix._exit]s (no parent at_exit hooks).  Used by the chaos
    harness and the bench to get real OS-level party isolation. *)

val gauges : t -> (string * int) list
(** The scrape gauges, readable in-process for tests/bench. *)

val report : t -> Spe_obs.Metrics.report option
(** Cumulative merged spe-metrics/2 report across every session this
    daemon ran ([None] until tracing produced one; tracing is enabled
    by [metrics_addr]). *)
