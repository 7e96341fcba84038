(* Session-multiplexed transports over a persistent connection mesh.

   One [Mux.t] lives in each Spe_serve daemon.  The daemon's connection
   layer registers one writer per peer daemon and feeds every inbound
   session-tagged frame to [deliver]; [open_session] then hands an
   ordinary [Transport.t] for one seat of one session to
   [Endpoint.run_party_async], so the whole barrier/Nack/timeout
   machinery runs unchanged over connections that outlive any single
   session.

   Concurrency: the registry lock only guards the tables — it is never
   held across a socket write or a notify hook, so reader threads,
   writers and the daemon's loop cannot deadlock through the mux. *)

module Mailbox = struct
  (* A session's inbound queue with the same try_recv/notify readiness
     interface as the group transports' inboxes, plus a lock: daemon
     reader threads push from outside the loop that pops.  A closed mailbox drains its
     remaining frames before raising [Closed], because a session seat
     may still complete from frames that arrived before its peer's
     connection died. *)
  type t = {
    lock : Mutex.t;
    frames : bytes Queue.t;
    mutable closed : bool;
    mutable notify : (unit -> unit) option;
  }

  let create () = { lock = Mutex.create (); frames = Queue.create (); closed = false; notify = None }

  let with_lock mb f =
    Mutex.lock mb.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock mb.lock) f

  let run_notify mb =
    match with_lock mb (fun () -> mb.notify) with Some f -> f () | None -> ()

  let set_notify mb f = with_lock mb (fun () -> mb.notify <- Some f)

  let push mb body =
    with_lock mb (fun () -> if not mb.closed then Queue.push body mb.frames);
    run_notify mb

  let try_pop mb =
    with_lock mb (fun () ->
        if mb.closed && Queue.is_empty mb.frames then raise Transport.Closed;
        Queue.take_opt mb.frames)

  let close mb =
    with_lock mb (fun () -> mb.closed <- true);
    run_notify mb
end

type entry = {
  mailbox : Mailbox.t;
  mutable session_peers : int array;
      (** Daemon ids by group index; [[||]] while the entry only buffers
          early frames for a session not yet opened here. *)
}

type t = {
  self : int;  (** This daemon's id. *)
  lock : Mutex.t;
  sessions : (int, entry) Hashtbl.t;  (* sid -> live or pending entry *)
  finished : (int, unit) Hashtbl.t;  (* closed/aborted sids: drop late frames *)
  writers : (int, sid:int -> bytes -> unit) Hashtbl.t;  (* peer daemon id -> writer *)
}

let create ~self =
  {
    self;
    lock = Mutex.create ();
    sessions = Hashtbl.create 64;
    finished = Hashtbl.create 64;
    writers = Hashtbl.create 8;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_writer t ~peer writer =
  with_lock t (fun () -> Hashtbl.replace t.writers peer writer)

(* The peer's connection died: any session seated with it can never
   complete, so close those mailboxes — the seats see
   [Transport.Closed] promptly instead of waiting out their round
   timeouts — and drop the writer so later sends fail fast too. *)
let fail_peer t ~peer =
  let victims =
    with_lock t (fun () ->
        Hashtbl.remove t.writers peer;
        Hashtbl.fold
          (fun sid entry acc ->
            if Array.exists (fun p -> p = peer) entry.session_peers then
              (sid, entry) :: acc
            else acc)
          t.sessions [])
  in
  List.iter (fun (_, entry) -> Mailbox.close entry.mailbox) victims

let peer_alive t ~peer = with_lock t (fun () -> Hashtbl.mem t.writers peer)

let deliver t ~sid body =
  let entry =
    with_lock t (fun () ->
        if Hashtbl.mem t.finished sid then None
        else
          match Hashtbl.find_opt t.sessions sid with
          | Some e -> Some e
          | None ->
            (* The peer opened the session first; buffer until our seat
               arrives and adopts the mailbox. *)
            let e = { mailbox = Mailbox.create (); session_peers = [||] } in
            Hashtbl.replace t.sessions sid e;
            Some e)
  in
  match entry with None -> () | Some e -> Mailbox.push e.mailbox body

(* Abort a session this daemon may never have opened (job cancelled by
   the coordinator): close any buffered mailbox and make both a later
   [open_session] and late retransmits dead on arrival. *)
let abort t ~sid =
  let entry =
    with_lock t (fun () ->
        Hashtbl.replace t.finished sid ();
        let e = Hashtbl.find_opt t.sessions sid in
        Hashtbl.remove t.sessions sid;
        e)
  in
  match entry with None -> () | Some e -> Mailbox.close e.mailbox

let open_session t ~sid ~peers =
  let m = Array.length peers in
  let self_index =
    let rec go j =
      if j >= m then invalid_arg "Mux.open_session: self not seated in session"
      else if peers.(j) = t.self then j
      else go (j + 1)
    in
    go 0
  in
  let entry =
    with_lock t (fun () ->
        if Hashtbl.mem t.finished sid then raise Transport.Closed;
        match Hashtbl.find_opt t.sessions sid with
        | Some e ->
          if Array.length e.session_peers > 0 then
            invalid_arg (Printf.sprintf "Mux.open_session: session %d already open" sid);
          e.session_peers <- peers;
          e
        | None ->
          let e = { mailbox = Mailbox.create (); session_peers = peers } in
          Hashtbl.replace t.sessions sid e;
          e)
  in
  let sent = Atomic.make 0 in
  let closed = Atomic.make false in
  let writer_to j =
    if j < 0 || j >= m then invalid_arg "Transport.send: unknown peer";
    if j = self_index then invalid_arg "Transport.send: self-send";
    match with_lock t (fun () -> Hashtbl.find_opt t.writers peers.(j)) with
    | Some w -> w
    | None -> raise Transport.Closed
  in
  let count body =
    Atomic.fetch_and_add sent (Frame.length_prefix_bytes + Bytes.length body) |> ignore
  in
  let send j body =
    if Atomic.get closed then raise Transport.Closed;
    let w = writer_to j in
    count body;
    w ~sid body
  in
  let send_many j bodies =
    match bodies with
    | [] -> ()
    | bodies ->
      if Atomic.get closed then raise Transport.Closed;
      let w = writer_to j in
      List.iter
        (fun body ->
          count body;
          w ~sid body)
        bodies
  in
  let close () =
    if not (Atomic.exchange closed true) then begin
      with_lock t (fun () ->
          Hashtbl.replace t.finished sid ();
          Hashtbl.remove t.sessions sid);
      Mailbox.close entry.mailbox
    end
  in
  ( {
      Transport.self = self_index;
      peers = m;
      send;
      send_many;
      try_recv = (fun () -> Mailbox.try_pop entry.mailbox);
      set_notify = (fun f -> Mailbox.set_notify entry.mailbox f);
      close;
      sent_bytes = (fun () -> Atomic.get sent);
    },
    self_index )

(* Tests and gauges. *)
let open_sessions t = with_lock t (fun () -> Hashtbl.length t.sessions)

(* The finished set only ever grows; a long-lived daemon trims it once
   a job's sids can no longer see late traffic. *)
let forget t ~sid = with_lock t (fun () -> Hashtbl.remove t.finished sid)
