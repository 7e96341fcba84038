module Nat = Spe_bignum.Nat
module Bigint = Spe_bignum.Bigint
module Montgomery = Spe_bignum.Montgomery
module Fixed_base = Spe_bignum.Fixed_base

(* CRT decryption constants: exponentiate mod p^2 and q^2 instead of
   n^2, then recombine.  hp/hq fold the per-prime L-inverse (the mu of
   the half-size subproblem) into the combine step. *)
type crt = {
  p : Nat.t;
  q : Nat.t;
  p_squared : Nat.t;
  q_squared : Nat.t;
  hp : Nat.t; (* ((p - 1) * q)^-1 mod p *)
  hq : Nat.t; (* ((q - 1) * p)^-1 mod q *)
  qinv : Nat.t; (* q^-1 mod p, Garner's constant *)
}

type public = { n : Nat.t; n_squared : Nat.t }

type secret = {
  n : Nat.t;
  n_squared : Nat.t;
  lambda : Nat.t;
  mu : Nat.t;
  crt : crt option;
}

type keypair = { public : public; secret : secret }

exception Key_too_small = Rsa.Key_too_small

(* A b-bit modulus n has n >= 2^(b-1): plaintexts of at most b - 1
   bits are strictly below n and round-trip without wrapping. *)
let check_plain_bits ~key_bits = function
  | None -> ()
  | Some plain_bits ->
    if plain_bits < 1 then invalid_arg "Paillier.generate: plain_bits must be positive";
    if plain_bits > key_bits - 1 then raise (Key_too_small { key_bits; plain_bits })

(* L(x) = (x - 1) / n, defined on x = 1 mod n. *)
let ell ~n x = Nat.div (Nat.pred x) n

let generate ?plain_bits st ~bits =
  if bits < 16 then invalid_arg "Paillier.generate: modulus must be at least 16 bits";
  check_plain_bits ~key_bits:bits plain_bits;
  let half = bits / 2 in
  let rec keys () =
    let p = Prime.random_prime st ~bits:half in
    let rec draw_q () =
      let q = Prime.random_prime st ~bits:(bits - half) in
      if Nat.equal p q then draw_q () else q
    in
    let q = draw_q () in
    let n = Nat.mul p q in
    let lambda = Nat.mul (Nat.pred p) (Nat.pred q) in
    if not (Nat.is_one (Nat.gcd n lambda)) then keys ()
    else begin
      let n_squared = Nat.mul n n in
      (* g = n + 1: mu = (L(g^lambda mod n^2))^-1 mod n = lambda^-1 mod n. *)
      match Bigint.mod_inv (Bigint.of_nat lambda) (Bigint.of_nat n) with
      | None -> keys ()
      | Some mu ->
        let mu = Bigint.to_nat mu in
        let inv_mod a m =
          match Bigint.mod_inv (Bigint.of_nat (Nat.rem a m)) (Bigint.of_nat m) with
          | Some x -> Some (Bigint.to_nat x)
          | None -> None
        in
        (* With g = n + 1, c^(p-1) = 1 + m*(p-1)*n mod p^2, so
           L_p(c^(p-1)) = m*(p-1)*q mod p; hp inverts that factor. *)
        let crt =
          match
            ( inv_mod (Nat.mul (Nat.pred p) q) p,
              inv_mod (Nat.mul (Nat.pred q) p) q,
              inv_mod q p )
          with
          | Some hp, Some hq, Some qinv ->
            Some
              {
                p;
                q;
                p_squared = Nat.mul p p;
                q_squared = Nat.mul q q;
                hp;
                hq;
                qinv;
              }
          | _ -> None (* gcd(p, q) = 1 makes every inverse exist *)
        in
        { public = { n; n_squared }; secret = { n; n_squared; lambda; mu; crt } }
    end
  in
  keys ()

(* g^m = (1 + n)^m = 1 + m*n  (mod n^2). *)
let g_pow_m (pk : public) m =
  if Nat.compare m pk.n >= 0 then invalid_arg "Paillier.encrypt: plaintext exceeds modulus";
  Nat.rem (Nat.succ (Nat.mul m pk.n)) pk.n_squared

(* r uniform in [1, n) with gcd(r, n) = 1 (all but negligibly many). *)
let draw_unit st (pk : public) =
  let rec draw () =
    let r = Nat.random_below st pk.n in
    if Nat.is_zero r || not (Nat.is_one (Nat.gcd r pk.n)) then draw () else r
  in
  draw ()

let encryptor ?(fixed_base = true) st (pk : public) =
  let ctx = Montgomery.create pk.n_squared in
  if not fixed_base then fun m ->
    let g_m = g_pow_m pk m in
    let r = draw_unit st pk in
    Nat.rem (Nat.mul g_m (Montgomery.pow ctx ~base:r ~exp:pk.n)) pk.n_squared
  else begin
    (* Per-key fixed base: h = r0^n is an n-th residue, so h^s =
       (r0^s)^n is valid fresh randomness for uniform s — the window
       table turns every later r^n into ~|n|/w multiplications with no
       squarings. *)
    let r0 = draw_unit st pk in
    let h = Montgomery.pow ctx ~base:r0 ~exp:pk.n in
    let table = Fixed_base.create ctx ~base:h ~max_exp_bits:(Nat.bit_length pk.n) in
    fun m ->
      let g_m = g_pow_m pk m in
      let rec draw_s () =
        let s = Nat.random_below st pk.n in
        if Nat.is_zero s then draw_s () else s
      in
      Nat.rem (Nat.mul g_m (Fixed_base.pow table (draw_s ()))) pk.n_squared
  end

let encrypt st (pk : public) m = encryptor ~fixed_base:false st pk m

(* Garner recombination: m = mq + q * (qinv * (mp - mq) mod p). *)
let crt_combine ~(crt : crt) ~mp ~mq =
  let diff =
    if Nat.compare mp mq >= 0 then Nat.sub mp mq
    else Nat.sub crt.p (Nat.rem (Nat.sub mq mp) crt.p)
  in
  let h = Nat.rem (Nat.mul crt.qinv diff) crt.p in
  Nat.add mq (Nat.mul h crt.q)

let decryptor ?(crt = true) (sk : secret) =
  match if crt then sk.crt else None with
  | None ->
    (* n^2 is odd: Montgomery applies. *)
    let ctx = Montgomery.create sk.n_squared in
    fun c ->
      let x = Montgomery.pow ctx ~base:c ~exp:sk.lambda in
      Nat.rem (Nat.mul (ell ~n:sk.n x) sk.mu) sk.n
  | Some crt ->
    (* Half-size split: exponent p - 1 instead of lambda (a quarter of
       the bits) over p^2 instead of n^2 (a quarter of the Montgomery work),
       and symmetrically for q.  See PERFORMANCE.md for the count. *)
    let ctx_p = Montgomery.create crt.p_squared in
    let ctx_q = Montgomery.create crt.q_squared in
    fun c ->
      let xp = Montgomery.pow ctx_p ~base:(Nat.rem c crt.p_squared) ~exp:(Nat.pred crt.p) in
      let xq = Montgomery.pow ctx_q ~base:(Nat.rem c crt.q_squared) ~exp:(Nat.pred crt.q) in
      let mp = Nat.rem (Nat.mul (ell ~n:crt.p xp) crt.hp) crt.p in
      let mq = Nat.rem (Nat.mul (ell ~n:crt.q xq) crt.hq) crt.q in
      crt_combine ~crt ~mp ~mq

let decrypt (sk : secret) c = decryptor sk c

let add (pk : public) c1 c2 = Nat.rem (Nat.mul c1 c2) pk.n_squared

let mul_plain (pk : public) c k =
  Montgomery.pow (Montgomery.create pk.n_squared) ~base:c ~exp:k

let ciphertext_bits (pk : public) = Nat.bit_length pk.n_squared
