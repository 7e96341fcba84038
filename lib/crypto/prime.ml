module Nat = Spe_bignum.Nat
module Montgomery = Spe_bignum.Montgomery
module State = Spe_rng.State

let small_primes =
  (* Sieve of Eratosthenes below 1000, computed once at load time. *)
  let limit = 1000 in
  let composite = Array.make (limit + 1) false in
  let primes = ref [] in
  for i = 2 to limit do
    if not composite.(i) then begin
      primes := i :: !primes;
      let j = ref (i * i) in
      while !j <= limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

(* [None] = passes trial division; [Some b] = verdict [b].  The first
   small prime dividing n decides: n is prime iff it is that prime. *)
let trial_division n =
  let small = Nat.to_int n in
  match small with
  | Some v when v < 2 -> Some false
  | _ ->
    let rec scan i =
      if i = Array.length small_primes then None
      else
        let p = small_primes.(i) in
        if Nat.rem_int n p = 0 then Some (small = Some p) else scan (i + 1)
    in
    scan 0

(* Miller-Rabin for odd n > 3 in Montgomery form: one context per
   candidate serves the a^d power and the squaring loop of every
   round, and the witnesses 1 and n - 1 are compared in Montgomery
   form too (the map is a bijection mod n). *)
let miller_rabin st ~rounds n =
  let ctx = Montgomery.create n in
  let n_minus_1 = Nat.pred n in
  (* Write n - 1 = 2^s * d with d odd. *)
  let rec strip d s = if Nat.is_even d then strip (Nat.shift_right d 1) (s + 1) else (d, s) in
  let d, s = strip n_minus_1 0 in
  let one = Montgomery.one_mont_limbs ctx in
  let minus_one = Montgomery.to_mont_limbs ctx n_minus_1 in
  let n_minus_3 = Nat.sub n (Nat.of_int 3) in
  let round () =
    (* Base a uniform in [2, n - 2]. *)
    let a = Nat.add Nat.two (Nat.random_below st n_minus_3) in
    let x = Montgomery.pow_limbs ctx (Montgomery.to_mont_limbs ctx a) d in
    if x = one || x = minus_one then true
    else begin
      let rec square_loop x i =
        if i >= s - 1 then false
        else
          let x = Montgomery.mul_limbs ctx x x in
          if x = minus_one then true else square_loop x (i + 1)
      in
      square_loop x 0
    end
  in
  let rec loop i = i >= rounds || (round () && loop (i + 1)) in
  loop 0

let is_prime ?(rounds = 20) st n =
  match trial_division n with
  | Some verdict -> verdict
  | None -> miller_rabin st ~rounds n

let random_prime ?rounds st ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: need at least 2 bits";
  let rec loop () =
    let c = Nat.random_bits_exact st bits in
    (* Force odd (2 is the only even prime and has 2 bits; catch it via
       the retry loop rather than special-casing). *)
    let c = if Nat.is_even c then Nat.succ c else c in
    if Nat.bit_length c = bits && is_prime ?rounds st c then c else loop ()
  in
  loop ()

let random_odd_prime_with st ~bits accept =
  let rec loop () =
    let p = random_prime st ~bits in
    if accept p then p else loop ()
  in
  loop ()
