(* Tests for the crypto substrate: Miller-Rabin against a known prime
   table, RSA and Paillier round-trips and homomorphic laws, and the
   shift cipher's window-membership property that Protocol 5's enhanced
   obfuscation relies on. *)

module Nat = Spe_bignum.Nat
module State = Spe_rng.State
module Prime = Spe_crypto.Prime
module Rsa = Spe_crypto.Rsa
module Paillier = Spe_crypto.Paillier
module Shift_cipher = Spe_crypto.Shift_cipher
module Cipher = Spe_crypto.Cipher

let nat = Alcotest.testable Nat.pp Nat.equal
let st () = State.create ~seed:11 ()

(* --- primality --------------------------------------------------------- *)

let test_small_primes_table () =
  Alcotest.(check int) "pi(1000) = 168" 168 (Array.length Prime.small_primes);
  Alcotest.(check int) "first prime" 2 Prime.small_primes.(0);
  Alcotest.(check int) "last prime below 1000" 997 Prime.small_primes.(167)

let test_is_prime_small_oracle () =
  let s = st () in
  (* Sieve oracle below 10_000 exercises both the trial-division fast
     path and Miller-Rabin (values above 997^2 skip the table; values
     in (1000, 10000) are composite-detected by trial division or MR). *)
  let limit = 10_000 in
  let composite = Array.make (limit + 1) false in
  for i = 2 to limit do
    if not composite.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  for v = 0 to limit do
    let expected = v >= 2 && not composite.(v) in
    if Prime.is_prime s (Nat.of_int v) <> expected then
      Alcotest.failf "is_prime wrong on %d" v
  done

let test_is_prime_known_large () =
  let s = st () in
  (* 2^89 - 1 is a Mersenne prime; 2^67 - 1 is famously composite. *)
  let mersenne k = Nat.pred (Nat.shift_left Nat.one k) in
  Alcotest.(check bool) "M89 prime" true (Prime.is_prime s (mersenne 89));
  Alcotest.(check bool) "M107 prime" true (Prime.is_prime s (mersenne 107));
  Alcotest.(check bool) "M67 composite" false (Prime.is_prime s (mersenne 67));
  Alcotest.(check bool) "M97 composite" false (Prime.is_prime s (mersenne 97))

let test_is_prime_carmichael () =
  let s = st () in
  (* Carmichael numbers fool Fermat but not Miller-Rabin. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) (string_of_int v) false (Prime.is_prime s (Nat.of_int v)))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 62745; 162401 ]

let test_random_prime_size_and_primality () =
  let s = st () in
  List.iter
    (fun bits ->
      let p = Prime.random_prime s ~bits in
      Alcotest.(check int) "bit length" bits (Nat.bit_length p);
      Alcotest.(check bool) "is prime" true (Prime.is_prime s p))
    [ 2; 3; 8; 16; 64; 128; 256 ]

(* --- RSA ---------------------------------------------------------------- *)

let test_rsa_roundtrip () =
  let s = st () in
  let kp = Rsa.generate s ~bits:256 in
  for _ = 1 to 50 do
    let m = Nat.random_below s kp.Rsa.public.Rsa.n in
    Alcotest.check nat "dec(enc(m)) = m" m
      (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m))
  done

let test_rsa_full_size () =
  let s = st () in
  let kp = Rsa.generate s ~bits:1024 in
  Alcotest.(check bool) "modulus ~1024 bits" true
    (Nat.bit_length kp.Rsa.public.Rsa.n >= 1023);
  let m = Nat.of_string "123456789123456789123456789" in
  Alcotest.check nat "1024-bit roundtrip" m
    (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m));
  Alcotest.(check bool) "ciphertext_bits matches modulus" true
    (Rsa.ciphertext_bits kp.Rsa.public >= 1023)

let test_rsa_plaintext_too_large () =
  let s = st () in
  let kp = Rsa.generate s ~bits:64 in
  Alcotest.check_raises "m >= n rejected"
    (Invalid_argument "Rsa.encrypt: plaintext exceeds modulus")
    (fun () -> ignore (Rsa.encrypt kp.Rsa.public kp.Rsa.public.Rsa.n))

let test_rsa_multiplicative () =
  (* Textbook RSA is multiplicatively homomorphic: E(a)E(b) = E(ab). *)
  let s = st () in
  let kp = Rsa.generate s ~bits:128 in
  let pk = kp.Rsa.public in
  let a = Nat.of_int 1234 and b = Nat.of_int 5678 in
  let prod = Nat.rem (Nat.mul (Rsa.encrypt pk a) (Rsa.encrypt pk b)) pk.Rsa.n in
  Alcotest.check nat "multiplicative" (Nat.of_int (1234 * 5678))
    (Rsa.decrypt kp.Rsa.secret prod)

let test_rsa_crt_equals_plain () =
  let s = st () in
  let kp = Rsa.generate s ~bits:256 in
  Alcotest.(check bool) "generated key carries CRT constants" true
    (kp.Rsa.secret.Rsa.crt <> None);
  let dec_crt = Rsa.decryptor ~crt:true kp.Rsa.secret in
  let dec_plain = Rsa.decryptor ~crt:false kp.Rsa.secret in
  for _ = 1 to 50 do
    let c = Rsa.encrypt kp.Rsa.public (Nat.random_below s kp.Rsa.public.Rsa.n) in
    Alcotest.check nat "CRT decrypt = full-size decrypt" (dec_plain c) (dec_crt c);
    (* Against the naive oracle too: c^d mod n without Montgomery. *)
    Alcotest.check nat "CRT decrypt = mod_pow oracle"
      (Nat.mod_pow ~base:c ~exp:kp.Rsa.secret.Rsa.d ~modulus:kp.Rsa.secret.Rsa.n)
      (dec_crt c)
  done

let test_rsa_key_too_small () =
  let s = st () in
  (* plain_bits up to bits - 1 is fine; bits wraps and must be typed. *)
  ignore (Rsa.generate ~plain_bits:63 s ~bits:64);
  Alcotest.check_raises "plain_bits = key_bits rejected"
    (Rsa.Key_too_small { key_bits = 64; plain_bits = 64 }) (fun () ->
      ignore (Rsa.generate ~plain_bits:64 s ~bits:64));
  Alcotest.check_raises "non-positive plain_bits rejected"
    (Invalid_argument "Rsa.generate: plain_bits must be positive") (fun () ->
      ignore (Rsa.generate ~plain_bits:0 s ~bits:64))

(* --- Paillier ----------------------------------------------------------- *)

let test_paillier_roundtrip () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    Alcotest.check nat "dec(enc(m)) = m" m
      (Paillier.decrypt kp.Paillier.secret (Paillier.encrypt s kp.Paillier.public m))
  done

let test_paillier_probabilistic () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let m = Nat.of_int 9 in
  let c1 = Paillier.encrypt s kp.Paillier.public m in
  let c2 = Paillier.encrypt s kp.Paillier.public m in
  Alcotest.(check bool) "two encryptions of the same value differ" false (Nat.equal c1 c2)

let test_paillier_homomorphic_add () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let pk = kp.Paillier.public in
  for _ = 1 to 20 do
    let a = State.next_int s 100_000 and b = State.next_int s 100_000 in
    let c = Paillier.add pk (Paillier.encrypt s pk (Nat.of_int a)) (Paillier.encrypt s pk (Nat.of_int b)) in
    Alcotest.check nat "E(a) + E(b) decrypts to a+b" (Nat.of_int (a + b))
      (Paillier.decrypt kp.Paillier.secret c)
  done

let test_paillier_mul_plain () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let pk = kp.Paillier.public in
  let c = Paillier.encrypt s pk (Nat.of_int 21) in
  Alcotest.check nat "2 * E(21) decrypts to 42" (Nat.of_int 42)
    (Paillier.decrypt kp.Paillier.secret (Paillier.mul_plain pk c Nat.two))

let test_paillier_crt_equals_plain () =
  let s = st () in
  let kp = Paillier.generate s ~bits:256 in
  Alcotest.(check bool) "generated key carries CRT constants" true
    (kp.Paillier.secret.Paillier.crt <> None);
  let dec_crt = Paillier.decryptor ~crt:true kp.Paillier.secret in
  let dec_plain = Paillier.decryptor ~crt:false kp.Paillier.secret in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    let c = Paillier.encrypt s kp.Paillier.public m in
    Alcotest.check nat "CRT decrypt = lambda/mu decrypt" (dec_plain c) (dec_crt c);
    Alcotest.check nat "CRT decrypt recovers m" m (dec_crt c)
  done

let test_paillier_fixed_base_encryptor () =
  let s = st () in
  let kp = Paillier.generate s ~bits:256 in
  let enc = Paillier.encryptor ~fixed_base:true s kp.Paillier.public in
  let dec = Paillier.decryptor kp.Paillier.secret in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    Alcotest.check nat "fixed-base enc roundtrips" m (dec (enc m))
  done;
  (* Still probabilistic: the per-call exponent re-randomises. *)
  let m = Nat.of_int 9 in
  Alcotest.(check bool) "two fixed-base encryptions differ" false
    (Nat.equal (enc m) (enc m));
  (* And agrees with the plain square-and-multiply encryptor modulo
     randomness: both decrypt to the same plaintext. *)
  let enc_plain = Paillier.encryptor ~fixed_base:false s kp.Paillier.public in
  Alcotest.check nat "plain encryptor agrees after decryption" m (dec (enc_plain m))

let test_paillier_key_too_small () =
  let s = st () in
  ignore (Paillier.generate ~plain_bits:63 s ~bits:64);
  (* Paillier.Key_too_small is a rebinding of Rsa.Key_too_small, so the
     same exception value matches through either name. *)
  Alcotest.check_raises "plain_bits = key_bits rejected"
    (Paillier.Key_too_small { key_bits = 64; plain_bits = 64 }) (fun () ->
      ignore (Paillier.generate ~plain_bits:64 s ~bits:64));
  Alcotest.(check bool) "rebinding: same exception constructor" true
    (Paillier.Key_too_small { key_bits = 1; plain_bits = 2 }
    = Rsa.Key_too_small { key_bits = 1; plain_bits = 2 })

(* --- golden pins ---------------------------------------------------------- *)

(* Key generation, encryption and decryption must stay bit-identical
   across changes to the bignum kernel: every value below was recorded
   once and is pinned here.  For each (cryptosystem, seed, bits) the
   pin is the modulus n, one ciphertext of a fixed plaintext drawn
   through the production encryptor, and the next RNG draw after key
   generation (which fixes how many draws keygen consumed). *)

type golden = { n_hex : string; c_hex : string; next_draw : int64 }

let golden_plaintext = Nat.of_int 424_242

let paillier_golden ~seed ~bits =
  let s = State.create ~seed () in
  let kp = Paillier.generate s ~bits in
  let next_draw = State.next_int64 (State.copy s) in
  let c = Paillier.encryptor s kp.Paillier.public golden_plaintext in
  Alcotest.check nat "pinned ciphertext decrypts" golden_plaintext
    (Paillier.decrypt kp.Paillier.secret c);
  { n_hex = Nat.to_hex kp.Paillier.public.Paillier.n; c_hex = Nat.to_hex c; next_draw }

let rsa_golden ~seed ~bits =
  let s = State.create ~seed () in
  let kp = Rsa.generate s ~bits in
  let next_draw = State.next_int64 (State.copy s) in
  let c = Rsa.encrypt kp.Rsa.public golden_plaintext in
  Alcotest.check nat "pinned ciphertext decrypts" golden_plaintext
    (Rsa.decrypt kp.Rsa.secret c);
  { n_hex = Nat.to_hex kp.Rsa.public.Rsa.n; c_hex = Nat.to_hex c; next_draw }

let check_golden name expect got =
  Alcotest.(check string) (name ^ " modulus") expect.n_hex got.n_hex;
  Alcotest.(check string) (name ^ " ciphertext") expect.c_hex got.c_hex;
  Alcotest.(check int64) (name ^ " next draw") expect.next_draw got.next_draw

let golden_pins =
  [
    ( "paillier seed 101 bits 512",
      {
        n_hex =
          "7a0be093db56791426c764f10b137902ec99873e8a92f971accc596a65f3ce47\
          7456300310b6e73cd29111145c3f0b0b8a0028a7ab6d8be8c77ac7a5747c55dd";
        c_hex =
          "1890c4833bbee68095e6cdf74a1b3e896e761f3ec8d91de45c0f82f6aa13fe47\
          d3de352f46c9d12ea848679e8cfa353d3b8623c1136351648cdc450c50251014\
          844e103c2a0c1c055124671018e91cfc1e68a42fae87ed9affc64ae4435df974\
          edb5b7a1fc9b9e5b4d4feb0f6ea84b09a45b41f417497b9fed0f29794f8fdf3a";
        next_draw = 8918648087918433419L;
      } );
    ( "paillier seed 102 bits 1024",
      {
        n_hex =
          "d22a6a19523be7e2ee0c2ac4fb007b0e3803cc972a35efd6969b91bae1ef9a39\
          ac2ce450459d8fcc596f6b8b9b32c625f9f79f6eb6329a40a630762c365b57a7\
          4956fb4f6aaf58f33f9fede32cc7310efd9aebc2aa93445b837c811eb9ce8307\
          0f05b9b86a853dae108a47ea4c250a3d9449ca3bc5897d06b313db7111256d07";
        c_hex =
          "60db4a4f483d6729f465fb21e67c7a4640a78dbaed922b871d5b6569d76a6917\
          a8d376fe3b9f95576f8ae3a627450aef35bede07a109a46326674b447129809d\
          f5f55ba56b705cda9ee2fa292b8331784b1fb3123476a11d32c19bd47d0febdf\
          cc1a2b44b1dc374750ab56e6b2e7a361aabd14b142073fcecb7e11ef972edb70\
          297c21975bee8e8b7757c0e471abb8fb4c607b755fa935ecc1902b8bbb1ce09a\
          e2da4267eb4adfa0b52d0a727bb7f9aac403f767d6b1dc0cfeee062b7d006a3a\
          7dc2032bc2a7cfbb552241ab5948dc021a35e45b086adc726e411ffcb7e2a365\
          342b4e4232e18e0562ba873322505fddbb2e653f522facb5217bde861d487b5";
        next_draw = 2683234854226413874L;
      } );
    ( "rsa seed 201 bits 512",
      {
        n_hex =
          "abbb68a9a6cad78508cbba3a7147b5f32e096b75f4a19480b822b5e60c3cb9d5\
          df857318e3d167a372512d4d44a00b77a9474bd63ddc88e0b0d83f66a9340aff";
        c_hex =
          "98c50c44452131cd589c84711162060dafb21a5cc400766e2743284c2188e78c\
          975402305aac7ca06d8db55d3d7433eca332a452808f33ba8234da8c90831762";
        next_draw = (-9115140527978805755L);
      } );
    ( "rsa seed 202 bits 1024",
      {
        n_hex =
          "95069b8deb2b520b60b7c7a021e9de0256db85297377ecc0d37ecc659cf958c1\
          22e09f619f850144da597edaae037cbe3c4bbb584ca7b9e94b92d92b2e0d65c8\
          67779d1c51b35808540f15613b4159b42348cd012778ce96d2c766f3f615785e\
          0724e62759133d6404b9feaeacc4824fb9e2f6219f743a9541b5e839beaeecb7";
        c_hex =
          "5aaed52d527c9a9dd4f851446e1a26e3a98c7df09e1584280fa2c2a9f128e068\
          aeda43db446fa9380e816820e222bf935b544e2f1cd7ac43b001056224823cfa\
          a834a1009c58bb9449adce582526d8475e11c6f1b41ab1d36fe57975931db453\
          fd4be2870d2afb4f19621c45bb273e52f67b10e4029be52a6090a94d3beaeba0";
        next_draw = (-3057679287667170807L);
      } );
  ]

let test_golden kind ~seed ~bits () =
  let name = Printf.sprintf "%s seed %d bits %d" kind seed bits in
  let got = (if kind = "paillier" then paillier_golden else rsa_golden) ~seed ~bits in
  check_golden name (List.assoc name golden_pins) got

(* --- shift cipher ------------------------------------------------------- *)

let test_shift_roundtrip () =
  let s = st () in
  for _ = 1 to 50 do
    let period = 2 + State.next_int s 1000 in
    let c = Shift_cipher.random s ~period in
    for _ = 1 to 20 do
      let t = State.next_int s period in
      Alcotest.(check int) "dec(enc(t)) = t" t (Shift_cipher.decrypt c (Shift_cipher.encrypt c t))
    done
  done

let test_shift_follows_within () =
  (* The window test on ciphertexts must agree with the plaintext
     condition t < t' <= t + h whenever no true record lives in the
     last h slots (the paper's premise for inequality (12)). *)
  let s = st () in
  let horizon = 50 and h = 5 in
  let period = horizon + h in
  for _ = 1 to 20 do
    let c = Shift_cipher.random s ~period in
    for t = 0 to horizon - 1 do
      for t' = 0 to horizon - 1 do
        let plain = t' > t && t' <= t + h in
        let ciph =
          Shift_cipher.follows_within c ~h (Shift_cipher.encrypt c t) (Shift_cipher.encrypt c t')
        in
        if plain <> ciph then Alcotest.failf "window mismatch at t=%d t'=%d" t t'
      done
    done
  done

let test_shift_invalid () =
  Alcotest.check_raises "bad period"
    (Invalid_argument "Shift_cipher.create: period must be positive")
    (fun () -> ignore (Shift_cipher.create ~key:0 ~period:0));
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Shift_cipher.create: key out of range")
    (fun () -> ignore (Shift_cipher.create ~key:5 ~period:5))

(* --- cipher facade ------------------------------------------------------ *)

let test_cipher_rsa () =
  let s = st () in
  let c = Cipher.rsa s ~bits:128 in
  List.iter
    (fun m -> Alcotest.(check int) "roundtrip" m (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
    [ 0; 1; 42; 1000; 999_983 ];
  Alcotest.(check bool) "z near modulus size" true (c.Cipher.public.Cipher.ciphertext_bits >= 127)

let test_cipher_paillier () =
  let s = st () in
  let c = Cipher.paillier s ~bits:128 in
  List.iter
    (fun m -> Alcotest.(check int) "roundtrip" m (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
    [ 0; 1; 42; 1000 ];
  Alcotest.(check bool) "z near 2x modulus size" true
    (c.Cipher.public.Cipher.ciphertext_bits >= 255)

let test_cipher_accel_off_roundtrips () =
  (* ~accel:false swaps in the unaccelerated reference pipeline
     (no CRT, no fixed-base, no hoisted contexts); the facade contract
     is unchanged. *)
  let s = st () in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          Alcotest.(check int) "roundtrip" m
            (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
        [ 0; 1; 42; 999_983 ])
    [ Cipher.rsa ~accel:false s ~bits:128; Cipher.paillier ~accel:false s ~bits:128 ]

let test_cipher_rejects_negative () =
  let s = st () in
  let c = Cipher.rsa s ~bits:64 in
  Alcotest.check_raises "negative plaintext"
    (Invalid_argument "Cipher.encrypt_int: negative plaintext")
    (fun () -> ignore (c.Cipher.public.Cipher.encrypt_int (-1)))

(* --- QCheck properties -------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let s_global = st () in
  let kp = Rsa.generate s_global ~bits:128 in
  let pkp = Paillier.generate s_global ~bits:128 in
  [
    Test.make ~name:"rsa roundtrip on random ints" ~count:100 (int_range 0 1_000_000_000)
      (fun m ->
        let m = Nat.of_int m in
        Nat.equal m (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m)));
    Test.make ~name:"paillier additive law" ~count:50
      (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
      (fun (a, b) ->
        let pk = pkp.Paillier.public in
        let c =
          Paillier.add pk
            (Paillier.encrypt s_global pk (Nat.of_int a))
            (Paillier.encrypt s_global pk (Nat.of_int b))
        in
        Nat.equal (Nat.of_int (a + b)) (Paillier.decrypt pkp.Paillier.secret c));
    Test.make ~name:"rsa CRT decrypt = plain decrypt" ~count:60 (int_range 0 1_000_000_000)
      (fun m ->
        let c = Rsa.encrypt kp.Rsa.public (Nat.of_int m) in
        Nat.equal
          (Rsa.decryptor ~crt:false kp.Rsa.secret c)
          (Rsa.decryptor ~crt:true kp.Rsa.secret c));
    Test.make ~name:"paillier CRT decrypt = plain decrypt" ~count:40
      (int_range 0 1_000_000_000)
      (fun m ->
        let c = Paillier.encrypt s_global pkp.Paillier.public (Nat.of_int m) in
        Nat.equal
          (Paillier.decryptor ~crt:false pkp.Paillier.secret c)
          (Paillier.decryptor ~crt:true pkp.Paillier.secret c));
    Test.make ~name:"shift cipher preserves gaps" ~count:200
      (triple (int_range 1 500) (int_range 0 10_000) (int_range 0 10_000))
      (fun (key_seed, t1, t2) ->
        let period = 20_000 in
        let c = Shift_cipher.create ~key:(key_seed mod period) ~period in
        let e1 = Shift_cipher.encrypt c t1 and e2 = Shift_cipher.encrypt c t2 in
        (e2 - e1 + period) mod period = (t2 - t1 + period) mod period);
  ]

let () =
  Alcotest.run "spe_crypto"
    [
      ( "prime",
        [
          Alcotest.test_case "small prime table" `Quick test_small_primes_table;
          Alcotest.test_case "sieve oracle" `Quick test_is_prime_small_oracle;
          Alcotest.test_case "known large primes" `Quick test_is_prime_known_large;
          Alcotest.test_case "carmichael numbers" `Quick test_is_prime_carmichael;
          Alcotest.test_case "random prime sizes" `Quick test_random_prime_size_and_primality;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "1024-bit keys" `Slow test_rsa_full_size;
          Alcotest.test_case "oversized plaintext" `Quick test_rsa_plaintext_too_large;
          Alcotest.test_case "multiplicative property" `Quick test_rsa_multiplicative;
          Alcotest.test_case "CRT decrypt equality" `Quick test_rsa_crt_equals_plain;
          Alcotest.test_case "key too small" `Quick test_rsa_key_too_small;
        ] );
      ( "paillier",
        [
          Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "probabilistic" `Quick test_paillier_probabilistic;
          Alcotest.test_case "homomorphic add" `Quick test_paillier_homomorphic_add;
          Alcotest.test_case "plaintext multiply" `Quick test_paillier_mul_plain;
          Alcotest.test_case "CRT decrypt equality" `Quick test_paillier_crt_equals_plain;
          Alcotest.test_case "fixed-base encryptor" `Quick test_paillier_fixed_base_encryptor;
          Alcotest.test_case "key too small" `Quick test_paillier_key_too_small;
        ] );
      ( "golden",
        [
          Alcotest.test_case "paillier 512" `Quick (test_golden "paillier" ~seed:101 ~bits:512);
          Alcotest.test_case "paillier 1024" `Slow (test_golden "paillier" ~seed:102 ~bits:1024);
          Alcotest.test_case "rsa 512" `Quick (test_golden "rsa" ~seed:201 ~bits:512);
          Alcotest.test_case "rsa 1024" `Slow (test_golden "rsa" ~seed:202 ~bits:1024);
        ] );
      ( "shift-cipher",
        [
          Alcotest.test_case "roundtrip" `Quick test_shift_roundtrip;
          Alcotest.test_case "window membership" `Quick test_shift_follows_within;
          Alcotest.test_case "invalid params" `Quick test_shift_invalid;
        ] );
      ( "cipher",
        [
          Alcotest.test_case "rsa facade" `Quick test_cipher_rsa;
          Alcotest.test_case "paillier facade" `Quick test_cipher_paillier;
          Alcotest.test_case "accel off" `Quick test_cipher_accel_off_roundtrips;
          Alcotest.test_case "negative plaintext" `Quick test_cipher_rejects_negative;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
