(* Word-level Montgomery multiplication over Nat's base-2^30 limbs, one
   fused pass per limb of [a].  Each inner step adds a_i * b_j, the
   reduction term m * n_j, the running limb t_j and the carry; with
   30-bit limbs that sum is at most
   2 * (2^30 - 1)^2 + (2^30 - 1) + 2^32 < 2^62,
   so it fits the 63-bit native int, and it is written straight to
   t_(j-1): the division by the base costs no separate shift loop. *)

let limb_bits = Nat.limb_bits
let limb_mask = (1 lsl limb_bits) - 1

type t = {
  modulus : Nat.t;
  n : int array;  (* modulus limbs, width k *)
  k : int;
  n0_inv : int;  (* -modulus^-1 mod 2^limb_bits *)
  r2 : int array;  (* R^2 mod modulus, width k *)
  one : int array;  (* plain 1, width k: the multiplier of [of_mont] *)
  one_mont : int array;  (* R mod modulus, width k *)
}

let modulus ctx = ctx.modulus

(* Inverse of an odd limb modulo 2^limb_bits by Newton iteration:
   each step doubles the number of correct low bits. *)
let inv_limb m0 =
  let inv = ref m0 in
  for _ = 1 to 6 do
    inv := !inv * (2 - (m0 * !inv)) land limb_mask
  done;
  !inv land limb_mask

(* t >= n, both of width k. *)
let geq t n k =
  let rec cmp j =
    if j < 0 then true
    else
      let tj = Array.unsafe_get t j and nj = Array.unsafe_get n j in
      if tj <> nj then tj > nj else cmp (j - 1)
  in
  cmp (k - 1)

(* result = a * b * R^-1 mod modulus for operands of width k below R.
   The running value t lives in the result array plus one top bit:
   it stays below modulus + R < 2R after every step, and below
   2 * modulus when both operands are reduced. *)
let mont_mul ctx a b =
  let k = ctx.k in
  if Array.length a <> k || Array.length b <> k then
    invalid_arg "Montgomery.mul_limbs: operand width differs from the modulus";
  let n = ctx.n and n0_inv = ctx.n0_inv in
  let t = Array.make k 0 in
  let top = ref 0 in
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    (* m zeroes the low limb, which the fused pass then drops. *)
    let s = Array.unsafe_get t 0 + (ai * Array.unsafe_get b 0) in
    let m = (s land limb_mask) * n0_inv land limb_mask in
    let c = ref ((s + (m * Array.unsafe_get n 0)) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s =
        Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (m * Array.unsafe_get n j) + !c
      in
      Array.unsafe_set t (j - 1) (s land limb_mask);
      c := s lsr limb_bits
    done;
    let s = !top + !c in
    Array.unsafe_set t (k - 1) (s land limb_mask);
    top := s lsr limb_bits
  done;
  (* One conditional subtraction; a set top bit is cancelled by the
     final borrow. *)
  if !top > 0 || geq t n k then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = Array.unsafe_get t j - Array.unsafe_get n j - !borrow in
      Array.unsafe_set t j (d land limb_mask);
      borrow := Bool.to_int (d < 0)
    done
  end;
  t

let create modulus =
  if Nat.is_even modulus || Nat.compare modulus (Nat.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus must be odd and >= 3";
  let k = Nat.num_limbs modulus in
  let n = Nat.to_limbs modulus ~width:k in
  let n0_inv = limb_mask land ((1 lsl limb_bits) - inv_limb n.(0)) in
  let r = Nat.shift_left Nat.one (limb_bits * k) in
  let r2 = Nat.to_limbs (Nat.rem (Nat.mul r r) modulus) ~width:k in
  let one = Nat.to_limbs Nat.one ~width:k in
  let one_mont = Nat.to_limbs (Nat.rem r modulus) ~width:k in
  { modulus; n; k; n0_inv; r2; one; one_mont }

let to_mont_limbs ctx x = mont_mul ctx (Nat.to_limbs (Nat.rem x ctx.modulus) ~width:ctx.k) ctx.r2
let of_mont_limbs ctx a = Nat.of_limbs (mont_mul ctx a ctx.one)

(* Left-to-right square-and-multiply on Montgomery-form limbs. *)
let pow_limbs ctx base_m exp =
  let acc = ref ctx.one_mont in
  for i = Nat.bit_length exp - 1 downto 0 do
    acc := mont_mul ctx !acc !acc;
    if Nat.test_bit exp i then acc := mont_mul ctx !acc base_m
  done;
  !acc

let to_mont ctx x = Nat.of_limbs (to_mont_limbs ctx x)
let of_mont ctx x = of_mont_limbs ctx (Nat.to_limbs x ~width:ctx.k)

let mul ctx a b =
  Nat.of_limbs (mont_mul ctx (Nat.to_limbs a ~width:ctx.k) (Nat.to_limbs b ~width:ctx.k))

let pow ctx ~base ~exp = of_mont_limbs ctx (pow_limbs ctx (to_mont_limbs ctx base) exp)

let width ctx = ctx.k
let one_mont_limbs ctx = Array.copy ctx.one_mont
let mul_limbs = mont_mul
