(** The submission side of spe-serve/2 — what [spe links --connect]
    and [spe scores --connect] run.

    A client talks to the host daemon only; H coordinates the provider
    daemons over the mesh.  Jobs are pipelined — submit any number,
    then collect replies, which arrive in completion order keyed by the
    client-chosen job id.  Every terminal state is typed: a result, a
    [Failed] with a {!Serve_proto.failure_kind}, or {!outcome.Busy}
    from admission control. *)

exception Connection_lost of string
(** The daemon is unreachable, spoke something other than spe-serve/2,
    or died mid-conversation.  The payload is a clean human message —
    the CLI prints it and exits nonzero, never a raw [Unix_error]. *)

type t

val connect : ?retry_for:float -> Addr.t -> t
(** Connect to the {e host} daemon and exchange hellos.  [retry_for]
    (default 0) keeps retrying refused connections for that many
    seconds — for scripts racing daemon start-up. *)

val submit : t -> Serve_proto.spec -> int
(** Submit one job; returns the client-side job id its reply will
    carry.  Thread-safe. *)

type outcome =
  | Result of Serve_proto.reply
  | Busy of { queued : int; max_queue : int }

val next_reply : t -> deadline:float -> (int * outcome) option
(** Block for the next reply, up to the absolute [deadline] ([None] on
    timeout). *)

val run_jobs : t -> Serve_proto.spec list -> deadline:float -> outcome list
(** Submit every spec up front (pipelined) and collect all replies;
    outcomes are indexed by submission order. *)

val close : t -> unit

val scrape : Addr.t -> string
(** Fetch the whole metrics document from a daemon's [--metrics-addr]. *)

val shutdown_daemon : ?timeout:float -> Addr.t -> bool
(** Ask one daemon to shut down; [true] once it confirms by closing the
    connection (EOF), [false] on timeout (default 30 s). *)

type seat_shutdown =
  | Stopped  (** The daemon drained and closed the connection. *)
  | Timed_out  (** Reached, but no confirmation within the timeout. *)
  | Unreachable of string  (** No connection; the message says why. *)

val shutdown_seats : ?timeout:float -> Addr.t array -> seat_shutdown array
(** Shut the whole deployment down, H first (so no new jobs race the
    providers' teardown), then each provider in roster order; one
    outcome per seat. *)

val shutdown_roster : ?timeout:float -> Addr.t array -> int list
(** {!shutdown_seats}, reduced to the party ids that did not confirm —
    unreachable seats included (empty = clean). *)
