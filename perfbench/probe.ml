(* The machine-speed probe.

   A child forked before anything else runs four fixed kernels on
   request, each about a millisecond long:

   - integer mixing over a 256 KB table, which stays in L2;
   - a pointer chase through a random 32 MB cycle (cache and TLB misses);
   - allocation churn with a share of survivors (minor and major GC);
   - 256-byte write/read round trips over a socketpair (syscalls).

   The child calls no spe library and shares no heap with the system
   under test, so no change to the libraries can move it: it reads the
   speed of the machine only.  A slice's value is the geometric mean of
   its four kernel times.  The workloads ask for a slice before every
   release (serve-mix: every block of jobs), never while one is in
   flight, so a run has a hundred slices or more; the time a slice takes
   is left out of the timed wall.

   On a shared host the speed changes in regimes a few seconds long,
   several within one run, so a release is normalised by the speed of
   its own moment: its local index is the mean of the [window] slices
   nearest it, half before and half after, with the highest and the
   lowest left out (a slice a preemption spoiled, and the flips between
   a fast and a slow mode within a regime).  A release's latency is
   reported as raw * (reference_ms / local index): what it would read
   on a machine whose index is [reference_ms].  Percentiles are taken
   over the normalised latencies, so they do not depend on how much of
   a run fell in a slow regime.  The run's factor, for its rates and
   other times, is the mean of its releases' factors weighted by their
   latencies, that is by the time each release was running; the run's
   index is [reference_ms] over it. *)

(* The index of the machine the benchmark was tuned on (2 vCPU, OCaml
   5.1.1): a fixed constant, so normalised values keep their units and
   compare across runs. *)
let reference_ms = 0.8

let table_words = 32 * 1024
let chase_words = 4 * 1024 * 1024
let mix_rounds = 5
let chase_steps = 10_000
let churn_blocks = 5_000
let pings = 300

let int_mix table =
  let mask = Array.length table - 1 in
  let x = ref 0x2545F491 in
  for _ = 1 to mix_rounds do
    for i = 0 to mask do
      let v = (table.(i) lxor !x) * 0x2545F4914F6CDD1D in
      table.(i) <- v lxor (v lsr 29);
      x := !x + table.((i * 31) land mask)
    done
  done;
  !x

(* Sattolo's shuffle: one cycle through every slot. *)
let cycle n =
  let st = Random.State.make [| 0x5eed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let chase next =
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := next.(!p)
  done;
  !p

let churn survivors =
  let keep = Array.length survivors in
  for i = 1 to churn_blocks do
    let l = List.init 6 (fun j -> (i, j)) in
    if i land 7 = 0 then survivors.(i / 8 mod keep) <- l
  done

let ping a b =
  let out = Bytes.make 256 'p' and inb = Bytes.create 256 in
  for _ = 1 to pings do
    ignore (Unix.write a out 0 256);
    let got = ref 0 in
    while !got < 256 do
      got := !got + Unix.read b inb !got (256 - !got)
    done
  done

(* The child: answer each request byte with one slice's four kernel
   times in ms, in fixed-width fields so every reply allocates the same
   in the parent; exit at end of file. *)
let serve req rep =
  let table = Array.init table_words (fun i -> i * 7919) in
  let next = cycle chase_words in
  let survivors = Array.make 4096 [] in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let oc = Unix.out_channel_of_descr rep in
  let sink = ref 0 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    1000. *. (Unix.gettimeofday () -. t0)
  in
  let byte = Bytes.create 1 in
  output_string oc "ready\n";
  flush oc;
  while Unix.read req byte 0 1 = 1 do
    let k1 = timed (fun () -> sink := !sink + int_mix table) in
    let k2 = timed (fun () -> sink := !sink + chase next) in
    let k3 = timed (fun () -> churn survivors) in
    let k4 = timed (fun () -> ping a b) in
    Printf.fprintf oc "%014.6f %014.6f %014.6f %014.6f %d\n%!" k1 k2 k3 k4 (!sink land 1)
  done;
  Unix._exit 0

type t = {
  pid : int;
  req : Unix.file_descr;
  rep : in_channel;
  mutable slices : float list;  (** Slice values (ms), newest first. *)
  mutable kernels : float list list;  (** Each slice's four kernel times (ms). *)
  mutable spent_s : float;  (** Wall time spent in slices. *)
  mutable count : int;  (** Slices so far. *)
}

let start () =
  flush stdout;
  flush stderr;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    (try serve req_r rep_w with _ -> ());
    Unix._exit 1
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    let rep = Unix.in_channel_of_descr rep_r in
    if input_line rep <> "ready" then failwith "probe: bad start-up line";
    { pid; req = req_w; rep; slices = []; kernels = []; spent_s = 0.; count = 0 }

let geomean xs = exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* One slice; returns the wall seconds it took. *)
let slice t =
  let t0 = Unix.gettimeofday () in
  ignore (Unix.write t.req (Bytes.of_string "s") 0 1);
  let times =
    match String.split_on_char ' ' (input_line t.rep) with
    | [ a; b; c; d; _ ] -> List.map float_of_string [ a; b; c; d ]
    | _ -> failwith "probe: malformed slice"
  in
  t.slices <- geomean times :: t.slices;
  t.kernels <- times :: t.kernels;
  t.count <- t.count + 1;
  let dt = Unix.gettimeofday () -. t0 in
  t.spent_s <- t.spent_s +. dt;
  dt

(* Slices a local index averages over. *)
let window = 8

(* The local index of a release that started after [at] slices: the
   [window] slices around that point, highest and lowest left out. *)
let local_index_ms t ~at =
  let a = Array.of_list (List.rev t.slices) in
  let n = Array.length a in
  let lo = max 0 (min (at - (window / 2)) (n - window)) in
  let w = List.sort compare (Array.to_list (Array.sub a lo (min window n))) in
  let kept = if List.length w > 2 then List.filteri (fun i _ -> i > 0 && i < List.length w - 1) w else w in
  List.fold_left ( +. ) 0. kept /. float_of_int (List.length kept)

(* The factor that turns a raw time at that point into its normalised
   value. *)
let local_factor t ~at = reference_ms /. local_index_ms t ~at

(* The median time of each kernel over the slices, in kernel order. *)
let kernel_ms t = List.init 4 (fun k -> Measure.median (List.map (fun ts -> List.nth ts k) t.kernels))

let stop t =
  Unix.close t.req;
  close_in t.rep;
  ignore (Unix.waitpid [] t.pid)

