exception Closed

type t = {
  self : int;
  peers : int;
  send : int -> bytes -> unit;
  send_many : int -> bytes list -> unit;
  try_recv : unit -> bytes option;
  set_notify : (unit -> unit) -> unit;
  close : unit -> unit;
  sent_bytes : unit -> int;
}

let check_dst ~peers dst =
  if dst < 0 || dst >= peers then invalid_arg "Transport.send: unknown peer"

(* Endpoints are identified by group index at this layer; traces use
   ["#i"] labels since the transport does not know the party names. *)
let index_label i = Printf.sprintf "#%d" i

(* The per-endpoint inbox of a reactor group.  Single-threaded: the
   reactor loop is the only reader and the only writer, so no lock —
   only the notify hook, which posts the owning machine's wake task.
   A closed inbox still hands out the frames it already holds before
   raising [Closed]. *)
module Inbox = struct
  type t = { q : bytes Queue.t; mutable closed : bool; mutable notify : (unit -> unit) option }

  let create () = { q = Queue.create (); closed = false; notify = None }
  let notify ib = match ib.notify with Some f -> f () | None -> ()
  let push ib body = if not ib.closed then Queue.push body ib.q

  let close ib =
    if not ib.closed then begin
      ib.closed <- true;
      notify ib
    end

  let try_recv ib =
    if ib.closed && Queue.is_empty ib.q then raise Closed;
    Queue.take_opt ib.q
end

(* The sending half every backend shares: one endpoint's framed-byte
   counter, trace label and fault policy.  [decide] is the one place a
   frame's fate is settled, and it charges the frame first — a dropped
   or delayed frame still counts as transmitted, and a duplicated one
   counts twice, so the framing closed form holds on faulted paths.
   The caller then performs the returned action on its own medium. *)
type meter = {
  src : int;
  label : string;
  fault : Fault.t;
  trace : Spe_obs.Trace.t;
  sent : int Atomic.t;
}

let meter ~fault ~trace src =
  { src; label = index_label src; fault; trace; sent = Atomic.make 0 }

let charge mt cost =
  Atomic.fetch_and_add mt.sent cost |> ignore;
  Spe_obs.Trace.count mt.trace ~party:mt.label Spe_obs.Trace.Transport_bytes cost

let note_fault mt ~dst what =
  if Spe_obs.Trace.enabled mt.trace then
    Spe_obs.Trace.note mt.trace ~party:mt.label (Printf.sprintf "fault.%s ->#%d" what dst)

let decide mt ~dst body =
  let cost = Frame.length_prefix_bytes + Bytes.length body in
  charge mt cost;
  let action = Fault.decide mt.fault ~src:mt.src ~dst in
  (match action with
  | Fault.Deliver -> ()
  | Fault.Drop ->
    Spe_obs.Trace.count mt.trace ~party:mt.label Spe_obs.Trace.Faults_dropped 1;
    note_fault mt ~dst "drop"
  | Fault.Delay d ->
    Spe_obs.Trace.count mt.trace ~party:mt.label Spe_obs.Trace.Faults_delayed 1;
    if Spe_obs.Trace.enabled mt.trace then note_fault mt ~dst (Printf.sprintf "delay %.3fs" d)
  | Fault.Duplicate ->
    (* The copy crosses the wire too; the receiver's dedup keyed on
       (sender, round, seq) absorbs the repeat. *)
    charge mt cost;
    note_fault mt ~dst "dup");
  action

module Memory = struct
  (* Delivery is a queue push on the same loop thread: no copy, no
     syscall.  A [Delay] holds its frame on a reactor timer. *)
  let reactor_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~reactor ~m ()
      =
    let inboxes = Array.init m (fun _ -> Inbox.create ()) in
    let closed = ref false in
    let close_all () =
      if not !closed then begin
        closed := true;
        Array.iter Inbox.close inboxes
      end
    in
    Array.init m (fun self ->
        let mt = meter ~fault ~trace self in
        let send_many dst bodies =
          match bodies with
          | [] -> ()
          | bodies ->
            check_dst ~peers:m dst;
            if !closed then raise Closed;
            let ib = inboxes.(dst) in
            let queued = Queue.length ib.Inbox.q in
            List.iter
              (fun body ->
                match decide mt ~dst body with
                | Fault.Deliver -> Inbox.push ib body
                | Fault.Drop -> ()
                | Fault.Delay d ->
                  ignore
                    (Reactor.at reactor
                       (Unix.gettimeofday () +. d)
                       (fun () ->
                         if not ib.Inbox.closed then begin
                           Inbox.push ib body;
                           Inbox.notify ib
                         end))
                | Fault.Duplicate ->
                  Inbox.push ib body;
                  Inbox.push ib body)
              bodies;
            if Queue.length ib.Inbox.q > queued then Inbox.notify ib
        in
        {
          self;
          peers = m;
          send = (fun dst body -> send_many dst [ body ]);
          send_many;
          try_recv = (fun () -> Inbox.try_recv inboxes.(self));
          set_notify = (fun f -> inboxes.(self).Inbox.notify <- Some f);
          close = close_all;
          sent_bytes = (fun () -> Atomic.get mt.sent);
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

  let prefixed body =
    let len = Bytes.length body in
    let buf = Bytes.create (Frame.length_prefix_bytes + len) in
    Bytes.set_int32_be buf 0 (Int32.of_int len);
    Bytes.blit body 0 buf Frame.length_prefix_bytes len;
    buf

  let write_frame fd body =
    let buf = prefixed body in
    really_write fd buf 0 (Bytes.length buf)

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

  (* Writes to a peer that already shut its end down must surface as
     [Closed], not kill the process. *)
  let ignore_sigpipe =
    lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

  (* A byte window over a reusable backing buffer: valid bytes are
     [buf.(off) .. buf.(off + len - 1)].  Appends compact or grow in
     place, so a round's outbound frames batch into one reused buffer
     (one write, no per-frame [Bytes.create]/[Bytes.concat]), and a
     connection's read path reuses one buffer for the whole session
     instead of [Bytes.cat]-ing a fresh copy per chunk. *)
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
  end

  (* One direction-owning descriptor of a group: endpoint [owner] reads
     its inbound frames from [fd] and queues its outbound bytes on
     [out] until the send-flush continuation has drained them. *)
  type rconn = {
    r_fd : Unix.file_descr;
    r_owner : int;
    mutable r_open : bool;
    r_in : Slab.s;
    r_out : Slab.s;
    mutable r_flushing : bool;  (* on_writable continuation installed *)
  }

  (* Everything past connection setup: [conns.(i).(j)] is the
     descriptor endpoint [i] uses to exchange frames with endpoint [j],
     and [meters.(i)] already carries any handshake bytes [i] wrote. *)
  let spin_up ~reactor ~m ~meters ~conns =
    let closed = ref false in
    let inboxes = Array.init m (fun _ -> Inbox.create ()) in
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
        Array.iter Inbox.close inboxes
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
      | nread -> (
        s.Slab.len <- s.Slab.len + nread;
        let queued = Queue.length ib.Inbox.q in
        match split_frames s.Slab.buf ~off:s.Slab.off ~len:s.Slab.len (Inbox.push ib) with
        | used ->
          Slab.consume s used;
          if Queue.length ib.Inbox.q > queued then Inbox.notify ib
        | exception Closed ->
          (* Corrupt stream: drop the connection and close the owner's
             inbox, so its next receive raises [Closed]. *)
          kill_conn c;
          Inbox.close ib)
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
        let mt = meters.(self) in
        let conn_to dst =
          check_dst ~peers:m dst;
          if !closed then raise Closed;
          match rconns.(self).(dst) with
          | None -> invalid_arg "Transport.send: unknown peer"
          | Some c -> c
        in
        (* Delivered frames append, length-prefixed, straight into the
           connection's pending-output slab: no intermediate copy.  A
           [Delay] holds a private copy on a reactor timer. *)
        let classify c dst body =
          match decide mt ~dst body with
          | Fault.Deliver ->
            if not c.r_open then raise Closed;
            Slab.add_framed c.r_out body
          | Fault.Drop -> ()
          | Fault.Delay d ->
            let buf = prefixed body in
            ignore
              (Reactor.at reactor
                 (Unix.gettimeofday () +. d)
                 (fun () ->
                   if (not !closed) && c.r_open then begin
                     Slab.add c.r_out buf 0 (Bytes.length buf);
                     flush c
                   end))
          | Fault.Duplicate ->
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
        {
          self;
          peers = m;
          send = (fun dst body -> send_many dst [ body ]);
          send_many;
          try_recv = (fun () -> Inbox.try_recv inboxes.(self));
          set_notify = (fun f -> inboxes.(self).Inbox.notify <- Some f);
          close = close_all;
          sent_bytes = (fun () -> Atomic.get mt.sent);
        })

  (* Every pair joined by a kernel [socketpair]: no listener, no dial,
     no Hello exchange and no filesystem path.  This is what the shard
     pool uses: it creates a fresh group per shard session, and at that
     rate the addressed handshake (~0.7 ms per group) would dominate
     the very latency overlap sharding exists to buy. *)
  let reactor_group_local ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ())
      ~reactor ~m () =
    Lazy.force ignore_sigpipe;
    if m < 2 then
      invalid_arg "Transport.Socket.reactor_group_local: need at least two endpoints";
    let meters = Array.init m (meter ~fault ~trace) in
    let conns = Array.make_matrix m m None in
    for j = 1 to m - 1 do
      for i = 0 to j - 1 do
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        conns.(i).(j) <- Some (i, a);
        conns.(j).(i) <- Some (j, b)
      done
    done;
    spin_up ~reactor ~m ~meters ~conns

  (* The addressed rendezvous is a fixed blocking syscall sequence run
     before the loop starts: dial first — the listen backlog holds the
     pending connections — then drain every listener on this same
     thread.  The dialer introduces itself with a Hello frame, charged
     to its counter but never subject to faults. *)
  let reactor_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~reactor
      ~addresses () =
    Lazy.force ignore_sigpipe;
    let m = Array.length addresses in
    if m < 2 then invalid_arg "Transport.Socket.reactor_group: need at least two endpoints";
    let meters = Array.init m (meter ~fault ~trace) in
    let conns = Array.make_matrix m m None in
    let domain_of = function Unix_domain _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
    let listeners =
      Array.mapi
        (fun i addr ->
          let sock = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
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
        let fd = Unix.socket (domain_of addresses.(i)) Unix.SOCK_STREAM 0 in
        Unix.connect fd (sockaddr_of addresses.(i));
        let hello = Frame.encode (Frame.Hello { sender = j }) in
        write_frame fd hello;
        charge meters.(j) (Frame.length_prefix_bytes + Bytes.length hello);
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
    (* The rendezvous paths served their purpose; drop them now so a
       crashed group cannot leave stale sockets behind. *)
    Array.iter
      (function
        | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ())
      addresses;
    spin_up ~reactor ~m ~meters ~conns

  (* One rendezvous directory per process, group sockets numbered
     within it — a fresh [Filename.temp_dir] per group costs directory
     churn on every session.  Mutex-memoised: callers on different
     threads may create groups at the same time (and [Lazy] is not
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
