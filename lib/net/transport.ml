exception Closed

type t = {
  self : int;
  peers : int;
  send : int -> bytes -> unit;
  send_many : int -> bytes list -> unit;
  recv : deadline:float -> bytes option;
  try_recv : unit -> bytes option;
  set_notify : (unit -> unit) -> unit;
  close : unit -> unit;
  sent_bytes : unit -> int;
}

(* A mutex-guarded frame queue with a condition-variable-style parked
   wait.  The stdlib [Condition] has no timed wait, and [recv] must
   honour a deadline, so the condvar is pipe-backed: an empty [pop]
   parks in [Unix.select] on a lazily-created wake pipe with exactly
   the remaining time as the timeout, and a [push] into an empty queue
   (or a [close]) writes one byte to wake it.  No polling, exact
   deadlines — the old 0.5 ms [Thread.delay] poll burned a core for
   the whole of a long compute phase on the far side.

   The mailbox also carries the reactor-facing readiness interface:
   [try_recv] (non-blocking pop) and a notify callback invoked after
   every delivery and on close, which is how a push from a foreign
   thread wakes a state machine parked on another thread's reactor. *)
module Mailbox = struct
  type m = {
    lock : Mutex.t;
    frames : bytes Queue.t;
    mutable closed : bool;
    mutable waiting : bool;  (* a popper is parked on the wake pipe *)
    mutable wake : (Unix.file_descr * Unix.file_descr) option;
        (* Owned by the parked popper for the duration of one park:
           created before parking, removed under the lock and closed
           right after the wait, so a pusher can never touch a stale
           descriptor and nothing leaks on close. *)
    mutable notify : (unit -> unit) option;
  }

  let create () =
    {
      lock = Mutex.create ();
      frames = Queue.create ();
      closed = false;
      waiting = false;
      wake = None;
      notify = None;
    }

  let with_lock mb f =
    Mutex.lock mb.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock mb.lock) f

  let wake_byte = Bytes.make 1 '!'

  (* Call with the lock held; the write is safe under it because the
     popper only ever reads the pipe outside the lock. *)
  let signal_locked mb =
    if mb.waiting then
      match mb.wake with
      | Some (_, w) -> ( try ignore (Unix.write w wake_byte 0 1) with Unix.Unix_error _ -> ())
      | None -> ()

  let notify_of mb = with_lock mb (fun () -> mb.notify)

  let run_notify mb = match notify_of mb with Some f -> f () | None -> ()

  let set_notify mb f = with_lock mb (fun () -> mb.notify <- Some f)

  let push mb body =
    with_lock mb (fun () ->
        if mb.closed then raise Closed;
        Queue.push body mb.frames;
        signal_locked mb);
    run_notify mb

  let push_list mb bodies =
    with_lock mb (fun () ->
        if mb.closed then raise Closed;
        List.iter (fun b -> Queue.push b mb.frames) bodies;
        signal_locked mb);
    run_notify mb

  let try_pop mb =
    with_lock mb (fun () ->
        if mb.closed then raise Closed;
        Queue.take_opt mb.frames)

  let rec pop mb ~deadline =
    let next =
      with_lock mb (fun () ->
          if mb.closed then raise Closed;
          match Queue.take_opt mb.frames with
          | Some _ as r -> `Frame r
          | None ->
            let remaining = deadline -. Unix.gettimeofday () in
            if remaining <= 0. then `Expired
            else begin
              let r, w = Unix.pipe () in
              Unix.set_nonblock w;
              mb.wake <- Some (r, w);
              mb.waiting <- true;
              `Park (r, w, remaining)
            end)
    in
    match next with
    | `Frame r -> r
    | `Expired -> None
    | `Park (r, w, remaining) ->
      (match Unix.select [ r ] [] [] remaining with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      with_lock mb (fun () ->
          mb.waiting <- false;
          mb.wake <- None);
      (* Exclusive owner now — no pusher can signal a pipe that is no
         longer registered, so closing cannot race a write. *)
      (try Unix.close r with Unix.Unix_error _ -> ());
      (try Unix.close w with Unix.Unix_error _ -> ());
      pop mb ~deadline

  let close mb =
    with_lock mb (fun () ->
        mb.closed <- true;
        signal_locked mb);
    run_notify mb
end

let check_dst ~peers dst =
  if dst < 0 || dst >= peers then invalid_arg "Transport.send: unknown peer"

(* Endpoints are identified by group index at this layer; traces use
   ["#i"] labels since the transport does not know the party names. *)
let index_label i = Printf.sprintf "#%d" i

module Memory = struct
  let create_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~m () =
    let mailboxes = Array.init m (fun _ -> Mailbox.create ()) in
    let counters = Array.init m (fun _ -> Atomic.make 0) in
    let close_all () = Array.iter Mailbox.close mailboxes in
    Array.init m (fun self ->
        let label = index_label self in
        (* The fault decision and the byte accounting are per frame;
           only the mailbox delivery batches.  Returns [None] when the
           frame is dropped or delayed rather than delivered. *)
        let stage dst body =
          check_dst ~peers:m dst;
          let cost = Frame.length_prefix_bytes + Bytes.length body in
          Atomic.fetch_and_add counters.(self) cost |> ignore;
          Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Transport_bytes cost;
          match Fault.decide fault ~src:self ~dst with
          | Fault.Deliver -> Some body
          | Fault.Drop ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_dropped 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.drop ->#%d" dst);
            None
          | Fault.Delay d ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_delayed 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label
                (Printf.sprintf "fault.delay %.3fs ->#%d" d dst);
            ignore
              (Thread.create
                 (fun () ->
                   Thread.delay d;
                   try Mailbox.push mailboxes.(dst) body with Closed -> ())
                 ());
            None
          | Fault.Duplicate ->
            (* The copy crosses the wire too: charge it and deliver it
               ahead of the original; the receiver's dedup keyed on
               (sender, round, seq) absorbs the repeat. *)
            Atomic.fetch_and_add counters.(self) cost |> ignore;
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Transport_bytes cost;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.dup ->#%d" dst);
            (try Mailbox.push mailboxes.(dst) body with Closed -> ());
            Some body
        in
        let send dst body =
          match stage dst body with
          | Some body -> Mailbox.push mailboxes.(dst) body
          | None -> ()
        in
        let send_many dst bodies =
          match List.filter_map (stage dst) bodies with
          | [] -> ()
          | delivered -> Mailbox.push_list mailboxes.(dst) delivered
        in
        {
          self;
          peers = m;
          send;
          send_many;
          recv = (fun ~deadline -> Mailbox.pop mailboxes.(self) ~deadline);
          try_recv = (fun () -> Mailbox.try_pop mailboxes.(self));
          set_notify = (fun f -> Mailbox.set_notify mailboxes.(self) f);
          close = close_all;
          sent_bytes = (fun () -> Atomic.get counters.(self));
        })
end

module Socket = struct
  type address = Unix_domain of string | Tcp of string * int

  let sockaddr_of = function
    | Unix_domain path -> Unix.ADDR_UNIX path
    | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

  let rec really_write fd buf off len =
    if len > 0 then begin
      let n = try Unix.write fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
      really_write fd buf (off + n) (len - n)
    end

  (* [None] on clean EOF before the first byte; raises on a torn read. *)
  let really_read fd len =
    let buf = Bytes.create len in
    let rec go off =
      if off >= len then Some buf
      else
        match Unix.read fd buf off (len - off) with
        | 0 -> if off = 0 then None else failwith "Transport.Socket: truncated stream"
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let write_frame fd body =
    let len = Bytes.length body in
    let prefixed = Bytes.create (Frame.length_prefix_bytes + len) in
    Bytes.set_int32_be prefixed 0 (Int32.of_int len);
    Bytes.blit body 0 prefixed Frame.length_prefix_bytes len;
    really_write fd prefixed 0 (Bytes.length prefixed)

  (* The body length a prefix announces.  A prefix with the sign bit
     set names no frame: the stream is corrupt, and every reader closes
     the connection that carried it. *)
  let body_length buf off =
    let len = Int32.to_int (Bytes.get_int32_be buf off) in
    if len < 0 then raise Closed else len

  let read_frame fd =
    match really_read fd Frame.length_prefix_bytes with
    | None -> None
    | Some prefix -> really_read fd (body_length prefix 0)

  let split_frames buf ~off ~len deliver =
    let rec go pos =
      if len - pos < Frame.length_prefix_bytes then pos
      else
        let flen = body_length buf (off + pos) in
        if len - pos < Frame.length_prefix_bytes + flen then pos
        else begin
          deliver (Bytes.sub buf (off + pos + Frame.length_prefix_bytes) flen);
          go (pos + Frame.length_prefix_bytes + flen)
        end
    in
    go 0

  (* A full-duplex descriptor shared by one endpoint's sender and the
     group's poller thread.  The send mutex makes teardown safe: the
     poller closes the descriptor under the same mutex, so a send can
     never race a close into a reused descriptor number. *)
  type conn = { fd : Unix.file_descr; send_mx : Mutex.t; mutable fd_open : bool }

  (* Writes to a peer that already shut its end down must surface as
     [Closed], not kill the process. *)
  let ignore_sigpipe =
    lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

  let conn_of fd = { fd; send_mx = Mutex.create (); fd_open = true }

  let prefixed body =
    let len = Bytes.length body in
    let buf = Bytes.create (Frame.length_prefix_bytes + len) in
    Bytes.set_int32_be buf 0 (Int32.of_int len);
    Bytes.blit body 0 buf Frame.length_prefix_bytes len;
    buf

  (* A byte window over a reusable backing buffer: valid bytes are
     [buf.(off) .. buf.(off + len - 1)].  Appends compact or grow in
     place, so both send paths batch a round's frames into one reused
     buffer (one write, no per-frame [Bytes.create]/[Bytes.concat]),
     and a reactor connection's read path reuses one buffer for the
     whole session instead of [Bytes.cat]-ing a fresh copy per chunk
     (the old poller's tail accumulation was quadratic on large
     bursts). *)
  module Slab = struct
    type s = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

    let create () = { buf = Bytes.create 4096; off = 0; len = 0 }

    let reserve s n =
      if s.off + s.len + n > Bytes.length s.buf then
        if s.len + n <= Bytes.length s.buf then begin
          (* Enough total room: slide the window back to the start. *)
          Bytes.blit s.buf s.off s.buf 0 s.len;
          s.off <- 0
        end
        else begin
          let cap = ref (max 4096 (Bytes.length s.buf)) in
          while !cap < s.len + n do
            cap := !cap * 2
          done;
          let buf = Bytes.create !cap in
          Bytes.blit s.buf s.off buf 0 s.len;
          s.buf <- buf;
          s.off <- 0
        end

    let add s src off n =
      reserve s n;
      Bytes.blit src off s.buf (s.off + s.len) n;
      s.len <- s.len + n

    (* One frame, length prefix included, appended in place. *)
    let add_framed s body =
      let len = Bytes.length body in
      reserve s (Frame.length_prefix_bytes + len);
      Bytes.set_int32_be s.buf (s.off + s.len) (Int32.of_int len);
      Bytes.blit body 0 s.buf (s.off + s.len + Frame.length_prefix_bytes) len;
      s.len <- s.len + Frame.length_prefix_bytes + len

    let consume s n =
      s.off <- s.off + n;
      s.len <- s.len - n;
      if s.len = 0 then s.off <- 0

    let clear s =
      s.off <- 0;
      s.len <- 0
  end

  (* Everything past rendezvous is shared by both blocking
     constructors: [spin_up] takes a fully-populated connection matrix
     — where conns.(i).(j) is the descriptor endpoint i uses to
     exchange frames with endpoint j — and returns the endpoint array,
     owning the teardown protocol and the group's poller thread. *)
  let spin_up ~fault ~trace ~m ~mailboxes ~counters ~conns =
    let closed = Atomic.make false in
    (* Teardown protocol: [close_all] only *shuts down* every socket —
       that wakes any read blocked in the poller and fails any write in
       a sender with EPIPE — and the poller alone closes descriptors,
       once it has seen each one dead.  Closing a descriptor another
       thread still reads would let the number be reused by the next
       group and its frames be stolen. *)
    let close_all () =
      if not (Atomic.exchange closed true) then begin
        Array.iter Mailbox.close mailboxes;
        Array.iter
          (Array.iter (function
            | None -> ()
            | Some c -> (
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())))
          conns
      end
    in
    (* One poller thread reads every descriptor of the group and feeds
       the owning endpoint's mailbox.  [Unix.select] costs nothing
       while the group is quiet, and a ready descriptor always yields a
       whole frame promptly because senders write frames atomically
       under the connection mutex. *)
    let reader_ends =
      Array.to_list conns
      |> List.concat_map Array.to_list
      |> List.concat_map (function None -> [] | Some c -> [ c ])
    in
    let owner_of = Hashtbl.create 16 in
    Array.iteri
      (fun i row ->
        Array.iter (function None -> () | Some c -> Hashtbl.replace owner_of c.fd i) row)
      conns;
    ignore
      (Thread.create
         (fun () ->
           (* Buffered reads: one [Unix.read] pulls whatever burst the
              sender wrote — typically a whole round's frames — and the
              tail of any split frame waits in [tails] for the next
              chunk.  Frame-per-syscall reading would cost a select
              wakeup plus two reads per frame. *)
           let chunk = Bytes.create 65536 in
           let tails = Hashtbl.create 16 in
           let live = ref (List.map (fun c -> c.fd) reader_ends) in
           let drop fd = live := List.filter (fun f -> f <> fd) !live in
           while !live <> [] do
             match Unix.select !live [] [] (-1.) with
             | ready, _, _ ->
               List.iter
                 (fun fd ->
                   let i = Hashtbl.find owner_of fd in
                   match Unix.read fd chunk 0 (Bytes.length chunk) with
                   | 0 -> drop fd
                   | nread -> (
                     let prev =
                       Option.value ~default:Bytes.empty (Hashtbl.find_opt tails fd)
                     in
                     let data = Bytes.cat prev (Bytes.sub chunk 0 nread) in
                     let total = Bytes.length data in
                     match
                       split_frames data ~off:0 ~len:total (fun body ->
                           try Mailbox.push mailboxes.(i) body with Closed -> ())
                     with
                     | pos -> Hashtbl.replace tails fd (Bytes.sub data pos (total - pos))
                     | exception Closed ->
                       (* Corrupt stream: the owner's next receive
                          raises [Closed] and the peer's sends fail. *)
                       Mailbox.close mailboxes.(i);
                       (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
                       drop fd)
                   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                   | exception Unix.Unix_error _ -> drop fd)
                 ready
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
             | exception Unix.Unix_error _ -> live := []
           done;
           (* Every read end is dead; reclaim the descriptors.  The
              mutex excludes any send still holding a descriptor. *)
           List.iter
             (fun c ->
               Mutex.lock c.send_mx;
               if c.fd_open then begin
                 c.fd_open <- false;
                 try Unix.close c.fd with Unix.Unix_error _ -> ()
               end;
               Mutex.unlock c.send_mx)
             reader_ends)
         ());
    Array.init m (fun self ->
        let label = index_label self in
        let conn_to dst =
          check_dst ~peers:m dst;
          if Atomic.get closed then raise Closed;
          match conns.(self).(dst) with
          | None -> invalid_arg "Transport.send: unknown peer"
          | Some c -> c
        in
        let count_frame body =
          let cost = Frame.length_prefix_bytes + Bytes.length body in
          Atomic.fetch_and_add counters.(self) cost |> ignore;
          Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Transport_bytes cost
        in
        let locked_write c buf =
          Mutex.lock c.send_mx;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock c.send_mx)
            (fun () ->
              if not c.fd_open then raise Closed;
              try really_write c.fd buf 0 (Bytes.length buf)
              with Unix.Unix_error _ -> raise Closed)
        in
        (* Frames bound for one peer accumulate, length-prefixed, in a
           per-endpoint scratch slab that is reused across sends: no
           per-frame [Bytes.create] or [Bytes.concat] on the steady
           path.  The endpoint's owner thread is the only writer (the
           rare Delay fault keeps a private copy for its timer
           thread). *)
        let scratch = Slab.create () in
        (* Fault decisions mirror the memory backend exactly — charge
           the frame *before* deciding (a dropped frame still counts as
           transmitted, so the framing closed form survives faults),
           then lose, hold or double the actual write. *)
        let classify dst body =
          count_frame body;
          match Fault.decide fault ~src:self ~dst with
          | Fault.Deliver -> Slab.add_framed scratch body
          | Fault.Drop ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_dropped 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.drop ->#%d" dst)
          | Fault.Delay d ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_delayed 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label
                (Printf.sprintf "fault.delay %.3fs ->#%d" d dst);
            let buf = prefixed body in
            ignore
              (Thread.create
                 (fun () ->
                   Thread.delay d;
                   match conn_to dst with
                   | c -> ( try locked_write c buf with Closed -> ())
                   | exception Closed -> ())
                 ())
          | Fault.Duplicate ->
            count_frame body;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.dup ->#%d" dst);
            Slab.add_framed scratch body;
            Slab.add_framed scratch body
        in
        (* One write per flush — a round's frames cost one syscall, one
           poller wakeup, one burst read at the far end.  The slab is
           reset even when the write dies so a later send to a live
           peer never replays stale bytes. *)
        let flush_scratch c =
          if scratch.Slab.len > 0 then
            Fun.protect
              ~finally:(fun () -> Slab.clear scratch)
              (fun () ->
                Mutex.lock c.send_mx;
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock c.send_mx)
                  (fun () ->
                    if not c.fd_open then raise Closed;
                    try really_write c.fd scratch.Slab.buf scratch.Slab.off scratch.Slab.len
                    with Unix.Unix_error _ -> raise Closed))
        in
        let send dst body =
          let c = conn_to dst in
          classify dst body;
          flush_scratch c
        in
        let send_many dst bodies =
          match bodies with
          | [] -> ()
          | bodies ->
            let c = conn_to dst in
            List.iter (classify dst) bodies;
            flush_scratch c
        in
        {
          self;
          peers = m;
          send;
          send_many;
          recv = (fun ~deadline -> Mailbox.pop mailboxes.(self) ~deadline);
          try_recv = (fun () -> Mailbox.try_pop mailboxes.(self));
          set_notify = (fun f -> Mailbox.set_notify mailboxes.(self) f);
          close = close_all;
          sent_bytes = (fun () -> Atomic.get counters.(self));
        })

  (* --- Reactor-driven groups -------------------------------------------------- *)

  (* One direction-owning descriptor of a reactor group: endpoint
     [owner] reads its inbound frames from [fd] and queues its
     outbound bytes on [out] until the send-flush continuation has
     drained them. *)
  type rconn = {
    r_fd : Unix.file_descr;
    r_owner : int;
    mutable r_open : bool;
    r_in : Slab.s;
    r_out : Slab.s;
    mutable r_flushing : bool;  (* on_writable continuation installed *)
  }

  (* The per-endpoint inbox of a reactor group.  Single-threaded: the
     reactor loop is the only reader and (via the read callbacks) the
     only writer, so no lock — only the notify hook, which posts the
     owning machine's wake task. *)
  type rinbox = {
    q : bytes Queue.t;
    mutable rx_closed : bool;
    mutable rx_notify : (unit -> unit) option;
  }

  let spin_up_reactor ~reactor ~fault ~trace ~m ~counters ~conns =
    let closed = ref false in
    let inboxes =
      Array.init m (fun _ -> { q = Queue.create (); rx_closed = false; rx_notify = None })
    in
    let rconns =
      Array.map
        (Array.map (Option.map (fun (owner, fd) ->
             Unix.set_nonblock fd;
             {
               r_fd = fd;
               r_owner = owner;
               r_open = true;
               r_in = Slab.create ();
               r_out = Slab.create ();
               r_flushing = false;
             })))
        conns
    in
    let notify_inbox ib = match ib.rx_notify with Some f -> f () | None -> () in
    let kill_conn c =
      if c.r_open then begin
        c.r_open <- false;
        Reactor.forget_fd reactor c.r_fd;
        (try Unix.close c.r_fd with Unix.Unix_error _ -> ())
      end
    in
    let close_all () =
      if not !closed then begin
        closed := true;
        Array.iter (Array.iter (function None -> () | Some c -> kill_conn c)) rconns;
        Array.iter
          (fun ib ->
            ib.rx_closed <- true;
            notify_inbox ib)
          inboxes
      end
    in
    (* The buffer-reusing read path: append whatever the kernel has
       into the connection's slab, slice out every complete frame in
       place, and wake the owning machine once per burst. *)
    let on_read c =
      let ib = inboxes.(c.r_owner) in
      Slab.reserve c.r_in 65536;
      let s = c.r_in in
      match Unix.read c.r_fd s.Slab.buf (s.Slab.off + s.Slab.len) 65536 with
      | 0 -> kill_conn c
      | nread ->
        s.Slab.len <- s.Slab.len + nread;
        let delivered = ref false in
        (match
           split_frames s.Slab.buf ~off:s.Slab.off ~len:s.Slab.len (fun body ->
               if not ib.rx_closed then begin
                 Queue.push body ib.q;
                 delivered := true
               end)
         with
        | used -> Slab.consume s used
        | exception Closed ->
          (* Corrupt stream: drop the connection and close the owner's
             inbox, so its next receive raises [Closed]. *)
          kill_conn c;
          ib.rx_closed <- true;
          delivered := true);
        if !delivered then notify_inbox ib
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> kill_conn c
    in
    Array.iter
      (Array.iter (function
        | None -> ()
        | Some c -> Reactor.on_readable reactor c.r_fd (fun () -> on_read c)))
      rconns;
    (* The send-flush continuation: write as much pending output as
       the kernel will take; on a short write park a writability
       interest and resume there.  This is what lets m machines share
       one thread without a full socket buffer deadlocking the loop. *)
    let rec flush c =
      let s = c.r_out in
      if c.r_open && s.Slab.len > 0 then begin
        match Unix.write c.r_fd s.Slab.buf s.Slab.off s.Slab.len with
        | n ->
          Slab.consume s n;
          if s.Slab.len > 0 then park c else unpark c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          park c
        | exception Unix.Unix_error _ ->
          (* The peer is gone; the machines will find out through the
             barrier.  Drop the pending output. *)
          s.Slab.len <- 0;
          s.Slab.off <- 0;
          kill_conn c
      end
      else if c.r_open then unpark c
    and park c =
      if not c.r_flushing then begin
        c.r_flushing <- true;
        Reactor.on_writable reactor c.r_fd (fun () -> flush c)
      end
    and unpark c =
      if c.r_flushing then begin
        c.r_flushing <- false;
        Reactor.clear_writable reactor c.r_fd
      end
    in
    Array.init m (fun self ->
        let label = index_label self in
        let conn_to dst =
          check_dst ~peers:m dst;
          if !closed then raise Closed;
          match rconns.(self).(dst) with
          | None -> invalid_arg "Transport.send: unknown peer"
          | Some c -> c
        in
        let count_frame body =
          let cost = Frame.length_prefix_bytes + Bytes.length body in
          Atomic.fetch_and_add counters.(self) cost |> ignore;
          Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Transport_bytes cost
        in
        (* Identical fault semantics to the blocking backends — charge
           before deciding — except a [Delay] holds the frame on a
           reactor timer instead of a helper thread: the injection
           point lives on the loop the machines run on.  Delivered
           frames append, length-prefixed, straight into the
           connection's pending-output slab: no intermediate copy. *)
        let classify c dst body =
          count_frame body;
          match Fault.decide fault ~src:self ~dst with
          | Fault.Deliver ->
            if not c.r_open then raise Closed;
            Slab.add_framed c.r_out body
          | Fault.Drop ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_dropped 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.drop ->#%d" dst)
          | Fault.Delay d ->
            Spe_obs.Trace.count trace ~party:label Spe_obs.Trace.Faults_delayed 1;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label
                (Printf.sprintf "fault.delay %.3fs ->#%d" d dst);
            let buf = prefixed body in
            ignore
              (Reactor.at reactor
                 (Unix.gettimeofday () +. d)
                 (fun () ->
                   if not !closed then
                     match rconns.(self).(dst) with
                     | Some c when c.r_open ->
                       Slab.add c.r_out buf 0 (Bytes.length buf);
                       flush c
                     | _ -> ()))
          | Fault.Duplicate ->
            count_frame body;
            if Spe_obs.Trace.enabled trace then
              Spe_obs.Trace.note trace ~party:label (Printf.sprintf "fault.dup ->#%d" dst);
            if not c.r_open then raise Closed;
            Slab.add_framed c.r_out body;
            Slab.add_framed c.r_out body
        in
        let send_many dst bodies =
          match bodies with
          | [] -> ()
          | bodies ->
            let c = conn_to dst in
            let before = c.r_out.Slab.len in
            List.iter (classify c dst) bodies;
            if c.r_out.Slab.len > before then flush c
        in
        let send dst body = send_many dst [ body ] in
        let try_recv () =
          let ib = inboxes.(self) in
          if ib.rx_closed && Queue.is_empty ib.q then raise Closed;
          Queue.take_opt ib.q
        in
        {
          self;
          peers = m;
          send;
          send_many;
          recv =
            (fun ~deadline:_ ->
              invalid_arg "Transport: blocking recv on a reactor transport");
          try_recv;
          set_notify = (fun f -> inboxes.(self).rx_notify <- Some f);
          close = close_all;
          sent_bytes = (fun () -> Atomic.get counters.(self));
        })

  let create_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~addresses () =
    Lazy.force ignore_sigpipe;
    let m = Array.length addresses in
    if m < 2 then invalid_arg "Transport.Socket.create_group: need at least two endpoints";
    let mailboxes = Array.init m (fun _ -> Mailbox.create ()) in
    let counters = Array.init m (fun _ -> Atomic.make 0) in
    let conns = Array.make_matrix m m None in
    let listeners =
      Array.mapi
        (fun i addr ->
          let domain = match addr with Unix_domain _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
          let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
          (match addr with
          | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
          | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
          Unix.bind sock (sockaddr_of addr);
          Unix.listen sock m;
          (i, sock))
        addresses
    in
    (* Dial first — the listen backlog holds the pending connections —
       then drain every listener in this same thread.  No handshake
       threads: setup is a fixed sequence of non-blocking syscalls.
       The dialer introduces itself with a Hello frame. *)
    for j = 1 to m - 1 do
      for i = 0 to j - 1 do
        let fd = Unix.socket (match addresses.(i) with Unix_domain _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET) Unix.SOCK_STREAM 0 in
        Unix.connect fd (sockaddr_of addresses.(i));
        let hello = Frame.encode (Frame.Hello { sender = j }) in
        write_frame fd hello;
        let cost = Frame.length_prefix_bytes + Bytes.length hello in
        Atomic.fetch_and_add counters.(j) cost |> ignore;
        Spe_obs.Trace.count trace ~party:(index_label j) Spe_obs.Trace.Transport_bytes cost;
        conns.(j).(i) <- Some (conn_of fd)
      done
    done;
    Array.iter
      (fun (i, listener) ->
        for _ = i + 1 to m - 1 do
          let fd, _ = Unix.accept listener in
          match read_frame fd with
          | Some body -> (
            match Frame.decode body with
            | Frame.Hello { sender } -> conns.(i).(sender) <- Some (conn_of fd)
            | _ -> failwith "Transport.Socket: expected Hello")
          | None -> failwith "Transport.Socket: peer hung up during handshake"
        done;
        Unix.close listener)
      listeners;
    (* The rendezvous paths served their purpose; drop them now so a
       crashed group cannot leave stale sockets behind. *)
    Array.iter
      (function
        | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ())
      addresses;
    spin_up ~fault ~trace ~m ~mailboxes ~counters ~conns

  (* Same engine — kernel stream sockets, frames, poller, teardown —
     minus the rendezvous: every pair is joined by [Unix.socketpair],
     so there is no listener, no dial, no Hello exchange and no
     filesystem path.  This is what the shard pool uses: it creates a
     fresh group per shard session, and at that rate the addressed
     handshake (~0.7 ms per group) would dominate the very latency
     overlap sharding exists to buy. *)
  let create_group_local ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~m () =
    Lazy.force ignore_sigpipe;
    if m < 2 then
      invalid_arg "Transport.Socket.create_group_local: need at least two endpoints";
    let mailboxes = Array.init m (fun _ -> Mailbox.create ()) in
    let counters = Array.init m (fun _ -> Atomic.make 0) in
    let conns = Array.make_matrix m m None in
    for j = 1 to m - 1 do
      for i = 0 to j - 1 do
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        conns.(i).(j) <- Some (conn_of a);
        conns.(j).(i) <- Some (conn_of b)
      done
    done;
    spin_up ~fault ~trace ~m ~mailboxes ~counters ~conns

  (* The reactor twin of [create_group_local]: same socketpair mesh,
     same frames and fault accounting, but every descriptor belongs to
     [reactor] and the returned transports speak the non-blocking
     readiness interface ([try_recv] + notify) instead of a blocking
     [recv].  Zero threads: reads, writes, delays and teardown all
     happen on the loop. *)
  let reactor_group_local ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ())
      ~reactor ~m () =
    Lazy.force ignore_sigpipe;
    if m < 2 then
      invalid_arg "Transport.Socket.reactor_group_local: need at least two endpoints";
    let counters = Array.init m (fun _ -> Atomic.make 0) in
    let conns = Array.make_matrix m m None in
    for j = 1 to m - 1 do
      for i = 0 to j - 1 do
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        conns.(i).(j) <- Some (i, a);
        conns.(j).(i) <- Some (j, b)
      done
    done;
    spin_up_reactor ~reactor ~fault ~trace ~m ~counters ~conns

  (* The reactor twin of [create_group]: the addressed rendezvous and
     its Hello accounting are identical (and still blocking — setup is
     a fixed syscall sequence before the loop starts), then the
     descriptors are handed to the reactor. *)
  let reactor_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~reactor
      ~addresses () =
    Lazy.force ignore_sigpipe;
    let m = Array.length addresses in
    if m < 2 then invalid_arg "Transport.Socket.reactor_group: need at least two endpoints";
    let counters = Array.init m (fun _ -> Atomic.make 0) in
    let conns = Array.make_matrix m m None in
    let listeners =
      Array.mapi
        (fun i addr ->
          let domain = match addr with Unix_domain _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
          let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
          (match addr with
          | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
          | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
          Unix.bind sock (sockaddr_of addr);
          Unix.listen sock m;
          (i, sock))
        addresses
    in
    for j = 1 to m - 1 do
      for i = 0 to j - 1 do
        let fd = Unix.socket (match addresses.(i) with Unix_domain _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET) Unix.SOCK_STREAM 0 in
        Unix.connect fd (sockaddr_of addresses.(i));
        let hello = Frame.encode (Frame.Hello { sender = j }) in
        write_frame fd hello;
        let cost = Frame.length_prefix_bytes + Bytes.length hello in
        Atomic.fetch_and_add counters.(j) cost |> ignore;
        Spe_obs.Trace.count trace ~party:(index_label j) Spe_obs.Trace.Transport_bytes cost;
        conns.(j).(i) <- Some (j, fd)
      done
    done;
    Array.iter
      (fun (i, listener) ->
        for _ = i + 1 to m - 1 do
          let fd, _ = Unix.accept listener in
          match read_frame fd with
          | Some body -> (
            match Frame.decode body with
            | Frame.Hello { sender } -> conns.(i).(sender) <- Some (i, fd)
            | _ -> failwith "Transport.Socket: expected Hello")
          | None -> failwith "Transport.Socket: peer hung up during handshake"
        done;
        Unix.close listener)
      listeners;
    Array.iter
      (function
        | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ())
      addresses;
    spin_up_reactor ~reactor ~fault ~trace ~m ~counters ~conns

  (* One rendezvous directory per process, group sockets numbered
     within it — a fresh [Filename.temp_dir] per group costs directory
     churn on every shard session.  Mutex-memoised: concurrent pool
     workers create groups at the same time (and [Lazy] is not
     thread-safe). *)
  let temp_root = ref None
  let temp_lock = Mutex.create ()
  let temp_counter = Atomic.make 0

  let temp_unix_addresses ~m =
    Mutex.lock temp_lock;
    let dir =
      match !temp_root with
      | Some d -> d
      | None ->
        let d = Filename.temp_dir "spe-net" "" in
        temp_root := Some d;
        d
    in
    Mutex.unlock temp_lock;
    let g = Atomic.fetch_and_add temp_counter 1 in
    Array.init m (fun i ->
        Unix_domain (Filename.concat dir (Printf.sprintf "g%d.p%d.sock" g i)))
end
