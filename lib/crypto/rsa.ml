module Nat = Spe_bignum.Nat
module Bigint = Spe_bignum.Bigint
module Montgomery = Spe_bignum.Montgomery

type crt = { p : Nat.t; q : Nat.t; dp : Nat.t; dq : Nat.t; qinv : Nat.t }
type public = { n : Nat.t; e : Nat.t }
type secret = { n : Nat.t; d : Nat.t; crt : crt option }
type keypair = { public : public; secret : secret }

exception Key_too_small of { key_bits : int; plain_bits : int }

let () =
  Printexc.register_printer (function
    | Key_too_small { key_bits; plain_bits } ->
      Some
        (Printf.sprintf
           "Rsa.Key_too_small: a %d-bit modulus cannot hold %d-bit plaintexts (needs \
            key_bits > plain_bits)"
           key_bits plain_bits)
    | _ -> None)

(* A b-bit modulus n has n >= 2^(b-1), so every plaintext of at most
   b - 1 bits is strictly below n and round-trips without wrapping. *)
let check_plain_bits ~key_bits = function
  | None -> ()
  | Some plain_bits ->
    if plain_bits < 1 then invalid_arg "Rsa.generate: plain_bits must be positive";
    if plain_bits > key_bits - 1 then raise (Key_too_small { key_bits; plain_bits })

let generate ?(e = 65537) ?plain_bits st ~bits =
  if bits < 16 then invalid_arg "Rsa.generate: modulus must be at least 16 bits";
  check_plain_bits ~key_bits:bits plain_bits;
  let e_nat = Nat.of_int e in
  let half = bits / 2 in
  let coprime_to_e p = Nat.is_one (Nat.gcd (Nat.pred p) e_nat) in
  let p = Prime.random_odd_prime_with st ~bits:half coprime_to_e in
  let rec draw_q () =
    let q = Prime.random_odd_prime_with st ~bits:(bits - half) coprime_to_e in
    if Nat.equal p q then draw_q () else q
  in
  let q = draw_q () in
  let n = Nat.mul p q in
  let phi = Nat.mul (Nat.pred p) (Nat.pred q) in
  let d =
    match Bigint.mod_inv (Bigint.of_nat e_nat) (Bigint.of_nat phi) with
    | Some d -> Bigint.to_nat d
    | None -> assert false (* primes were drawn coprime to e *)
  in
  let crt =
    match Bigint.mod_inv (Bigint.of_nat q) (Bigint.of_nat p) with
    | None -> None (* p = q is excluded, so unreachable; fall back to plain *)
    | Some qinv ->
      Some
        {
          p;
          q;
          dp = Nat.rem d (Nat.pred p);
          dq = Nat.rem d (Nat.pred q);
          qinv = Bigint.to_nat qinv;
        }
  in
  { public = { n; e = e_nat }; secret = { n; d; crt } }

(* RSA moduli are odd, so Montgomery exponentiation applies. *)
let encryptor (pk : public) =
  let ctx = Montgomery.create pk.n in
  fun m ->
    if Nat.compare m pk.n >= 0 then invalid_arg "Rsa.encrypt: plaintext exceeds modulus";
    Montgomery.pow ctx ~base:m ~exp:pk.e

let encrypt (pk : public) m = encryptor pk m

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
    let ctx = Montgomery.create sk.n in
    fun c -> Montgomery.pow ctx ~base:c ~exp:sk.d
  | Some crt ->
    (* Two half-size exponentiations: ~4x cheaper than one full-size
       (half the multiplications, each on half-width operands whose
       Montgomery multiply is quadratic in the limb count). *)
    let ctx_p = Montgomery.create crt.p in
    let ctx_q = Montgomery.create crt.q in
    fun c ->
      let mp = Montgomery.pow ctx_p ~base:(Nat.rem c crt.p) ~exp:crt.dp in
      let mq = Montgomery.pow ctx_q ~base:(Nat.rem c crt.q) ~exp:crt.dq in
      crt_combine ~crt ~mp ~mq

let decrypt (sk : secret) c = decryptor sk c

let ciphertext_bits (pk : public) = Nat.bit_length pk.n

let public_key_bits (pk : public) = Nat.bit_length pk.n + Nat.bit_length pk.e
