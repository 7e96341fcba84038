(* Clocks, process accounting and order statistics.

   Process figures come from /proc, so the benchmark reads the daemons
   it spawned the same way it reads itself. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let cpu_self_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ, the unit of the CPU times in /proc/<pid>/stat: 100 on every
   Linux configuration user space can see. *)
let clock_ticks_per_s = 100.

(* utime + stime of [pid].  The command name (field 2) may hold spaces,
   so fields are counted after its closing parenthesis. *)
let cpu_of_pid_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks_per_s

(* A "Key:   value unit" line of a /proc status file, as a number. *)
let proc_field path key =
  let prefix = key ^ ":" in
  let n = String.length prefix in
  match
    List.find_opt
      (fun l -> String.length l >= n && String.sub l 0 n = prefix)
      (String.split_on_char '\n' (read_file path))
  with
  | None -> failwith (Printf.sprintf "%s has no %s line" path key)
  | Some l ->
    let v = String.trim (String.sub l n (String.length l - n)) in
    let v = match String.index_opt v ' ' with Some i -> String.sub v 0 i | None -> v in
    float_of_string v

let status pid key = proc_field (Printf.sprintf "/proc/%d/status" pid) key

(* Peak and current resident set, in kB. *)
let peak_rss_kb pid = status pid "VmHWM"
let rss_kb pid = status pid "VmRSS"

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, [p] in (0, 100].  A failed release is
   infinitely late and sorts last, so it counts as a miss. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_f f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sum_i f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let mean f = function [] -> 0. | xs -> sum_f f xs /. float_of_int (List.length xs)

(* Bit-for-bit float equality: [=] equates 0. and -0. and never two
   NaNs. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_strengths a b =
  List.length a = List.length b
  && List.for_all2 (fun (ea, pa) (eb, pb) -> ea = eb && same_float pa pb) a b

(* Seconds per call of [f]: the median of five batches, each of enough
   calls to fill 20 ms, so a batch reads well past the clock's
   resolution. *)
let per_call f =
  let rec batch reps =
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = now () -. t0 in
    if dt >= 0.02 then (dt /. float_of_int reps, reps) else batch (reps * 2)
  in
  let first, reps = batch 1 in
  let rest =
    List.init 4 (fun _ ->
        let t0 = now () in
        for _ = 1 to reps do
          f ()
        done;
        (now () -. t0) /. float_of_int reps)
  in
  median (first :: rest)

(* Run [f] in a forked child and return its result through a pipe, so
   the oracles never grow this process's heap: its peak memory stays
   the system's, and daemons forked later start small.  [f]'s result
   must be plain data. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with Failure msg -> Error msg | e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> (Marshal.from_channel ic : ('a, string) result))
    in
    match r with Ok v -> v | Error msg -> failwith msg)
