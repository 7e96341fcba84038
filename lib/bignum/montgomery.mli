(** Montgomery modular arithmetic for odd moduli.

    {!Nat.mod_pow} reduces with a full Knuth-D division after every
    multiplication; Montgomery form replaces those divisions with
    shift-and-add reductions, which is the standard speed-up for the
    RSA/Paillier workloads of Protocol 6 and for the Miller-Rabin
    rounds of [Spe_crypto.Prime] (the bench quantifies the factor).
    Each multiplication is one fused pass per limb: multiply, reduce
    and shift in a single inner loop whose sums stay below 2^62.  The
    context precomputes [R = 2^(limb_bits * k) > modulus],
    [R^2 mod modulus] and [-modulus^-1 mod 2^limb_bits]. *)

type t
(** A reduction context for one odd modulus. *)

val create : Nat.t -> t
(** [create modulus] builds a context.  Raises [Invalid_argument] if
    the modulus is even or < 3. *)

val modulus : t -> Nat.t

val to_mont : t -> Nat.t -> Nat.t
(** Map [x] (reduced mod modulus first) into Montgomery form
    [x * R mod modulus]. *)

val of_mont : t -> Nat.t -> Nat.t
(** Inverse mapping. *)

val mul : t -> Nat.t -> Nat.t -> Nat.t
(** Product of two Montgomery-form values, in Montgomery form. *)

val pow : t -> base:Nat.t -> exp:Nat.t -> Nat.t
(** [pow ctx ~base ~exp] is [base^exp mod modulus] for ordinary
    (non-Montgomery) [base], returned in ordinary form — a drop-in
    replacement for {!Nat.mod_pow} on odd moduli. *)

(**/**)

(* Limb-level access for [Fixed_base] and for Miller-Rabin in
   [Spe_crypto.Prime]: raw Montgomery-form limb arrays of the
   context's width, avoiding a Nat round-trip per multiplication.
   Results are fresh arrays except that [pow_limbs] may return the
   context's own [R mod modulus]; callers never mutate them.  Not part
   of the public API. *)
val width : t -> int
val one_mont_limbs : t -> int array
val to_mont_limbs : t -> Nat.t -> int array
val of_mont_limbs : t -> int array -> Nat.t

val mul_limbs : t -> int array -> int array -> int array
(* Raises [Invalid_argument] unless both operands have the context's
   width. *)

val pow_limbs : t -> int array -> Nat.t -> int array
(* [pow_limbs ctx base_m exp]: Montgomery-form base to Montgomery-form
   power. *)

(**/**)
