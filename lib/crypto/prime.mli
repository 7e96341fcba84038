(** Primality testing and random prime generation.

    Protocol 6 requires a public-key cryptosystem; its moduli are built
    from random primes produced here.  Candidates are screened by trial
    division against a table of small primes (single-limb remainders,
    {!Spe_bignum.Nat.rem_int}), then subjected to Miller-Rabin with
    independently drawn bases.  Miller-Rabin runs in Montgomery form:
    one {!Spe_bignum.Montgomery} context per candidate serves the
    [a^d] power and the squaring loop of every round.  For the b-bit
    sizes used in this repository (up to 1024-bit moduli) 20 rounds
    give a failure probability far below 4^-20. *)

val small_primes : int array
(** The primes below 1000, used for trial division. *)

val is_prime : ?rounds:int -> Spe_rng.State.t -> Spe_bignum.Nat.t -> bool
(** Miller-Rabin with the given number of rounds (default 20).
    Deterministic and exact for inputs below 1000^2 (covered by the
    trial-division table). *)

val random_prime : ?rounds:int -> Spe_rng.State.t -> bits:int -> Spe_bignum.Nat.t
(** A random prime of exactly [bits] bits ([bits >= 2]).  The top bit
    is forced so products of two such primes have predictable size. *)

val random_odd_prime_with : Spe_rng.State.t -> bits:int ->
  (Spe_bignum.Nat.t -> bool) -> Spe_bignum.Nat.t
(** [random_odd_prime_with st ~bits accept] draws random primes of the
    requested size until [accept] holds (e.g. congruence conditions for
    RSA key generation). *)
