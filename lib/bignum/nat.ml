(* Little-endian arrays of base-2^30 limbs, normalised: no trailing
   zero limbs, zero is the empty array.  All limb products fit in the
   63-bit native int: (2^30 - 1)^2 + 2 * 2^30 < 2^62. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1
let is_even a = Array.length a = 0 || a.(0) land 1 = 0
let num_limbs a = Array.length a

(* Trim trailing zero limbs; shares the input when already normal. *)
let norm (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int x =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  if x = 0 then zero
  else begin
    let rec count v acc = if v = 0 then acc else count (v lsr limb_bits) (acc + 1) in
    let n = count x 0 in
    let a = Array.make n 0 in
    let v = ref x in
    for i = 0 to n - 1 do
      a.(i) <- !v land limb_mask;
      v := !v lsr limb_bits
    done;
    a
  end

let to_int a =
  (* max_int holds just over two limbs (62 bits = 2*30 + 2). *)
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl limb_bits) lor a.(0))
  | 3 when a.(2) < 4 -> Some ((a.(2) lsl (2 * limb_bits)) lor (a.(1) lsl limb_bits) lor a.(0))
  | _ -> None

let to_int_exn a =
  match to_int a with
  | Some v -> v
  | None -> failwith "Nat.to_int_exn: value exceeds max_int"

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  norm r

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: negative result";
  norm r

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land limb_mask;
          carry := p lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    norm r
  end

let karatsuba_threshold = 32

(* Split [a] at limb [k] into (low, high). *)
let split_at (a : t) k =
  let n = Array.length a in
  if n <= k then (a, zero)
  else (norm (Array.sub a 0 k), Array.sub a k (n - k))

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if min la lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (sub (mul (add a0 a1) (add b0 b1)) z0) z2 in
    let shift_limbs x s =
      if is_zero x then zero
      else begin
        let n = Array.length x in
        let r = Array.make (n + s) 0 in
        Array.blit x 0 r s n;
        r
      end
    in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let shift_left (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let n = Array.length a in
    let r = Array.make (n + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift n
    else begin
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      r.(n + limb_shift) <- !carry
    end;
    norm r
  end

let shift_right (a : t) bits =
  if bits < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let n = Array.length a in
    if limb_shift >= n then zero
    else begin
      let m = n - limb_shift in
      let r = Array.make m 0 in
      if bit_shift = 0 then Array.blit a limb_shift r 0 m
      else
        for i = 0 to m - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi = if i + limb_shift + 1 < n then a.(i + limb_shift + 1) lsl (limb_bits - bit_shift) else 0 in
          r.(i) <- (lo lor hi) land limb_mask
        done;
      norm r
    end
  end

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit (a : t) i =
  if i < 0 then invalid_arg "Nat.test_bit: negative index";
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

(* Division by a single limb; returns (quotient, remainder-as-int). *)
let divmod_small (u : t) d =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_small: divisor out of limb range";
  let n = Array.length u in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (norm q, !r)

let rem_int (u : t) d =
  if d <= 0 || d >= base then invalid_arg "Nat.rem_int: divisor out of limb range";
  let r = ref 0 in
  for i = Array.length u - 1 downto 0 do
    r := ((!r lsl limb_bits) lor u.(i)) mod d
  done;
  !r

(* Knuth TAOCP vol. 2, Algorithm 4.3.1-D.  [v] has >= 2 limbs. *)
let divmod_knuth (u : t) (v : t) =
  let n = Array.length v in
  (* Normalise so the top limb of v is >= base/2. *)
  let rec top_width x acc = if x = 0 then acc else top_width (x lsr 1) (acc + 1) in
  let s = limb_bits - top_width v.(n - 1) 0 in
  let vn = shift_left v s in
  let un_t = shift_left u s in
  let lu = Array.length un_t in
  let m = lu - n in
  (* Working copy with one extra high limb. *)
  let w = Array.make (lu + 1) 0 in
  Array.blit un_t 0 w 0 lu;
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) and vnext = vn.(n - 2) in
  for j = m downto 0 do
    let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    let continue = ref true in
    while !continue do
      if !qhat >= base || !qhat * vnext > ((!rhat lsl limb_bits) lor w.(j + n - 2)) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then continue := false
      end
      else continue := false
    done;
    (* Multiply-subtract qhat * vn from w[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = w.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin w.(i + j) <- d + base; borrow := 1 end
      else begin w.(i + j) <- d; borrow := 0 end
    done;
    let d = w.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add vn back. *)
      w.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let sum = w.(i + j) + vn.(i) + !c in
        w.(i + j) <- sum land limb_mask;
        c := sum lsr limb_bits
      done;
      w.(j + n) <- (w.(j + n) + !c) land limb_mask
    end
    else w.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shift_right (norm (Array.sub w 0 n)) s in
  (norm q, r)

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let succ a = add a one
let pred a = sub a one

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let lcm a b = if is_zero a || is_zero b then zero else mul (div a (gcd a b)) b

let isqrt n =
  if is_zero n then zero
  else begin
    (* Newton iteration x' = (x + n/x) / 2 from an over-estimate
       converges monotonically down to floor(sqrt n). *)
    let x0 = shift_left one ((bit_length n + 1) / 2) in
    let rec refine x =
      let x' = shift_right (add x (div n x)) 1 in
      if compare x' x < 0 then refine x' else x
    in
    refine x0
  end

let is_square n =
  let r = isqrt n in
  equal (mul r r) n

let pow base exponent =
  if exponent < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one base exponent

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if is_one modulus then zero
  else begin
    let b = rem b modulus in
    let result = ref one in
    let nbits = bit_length exp in
    for i = nbits - 1 downto 0 do
      result := rem (mul !result !result) modulus;
      if test_bit exp i then result := rem (mul !result b) modulus
    done;
    !result
  end

let to_string a =
  if is_zero a then "0"
  else begin
    (* Peel 9 decimal digits at a time: 10^9 < 2^30. *)
    let chunk = 1_000_000_000 in
    let buf = Buffer.create 32 in
    let rec peel x acc =
      if is_zero x then acc
      else
        let q, r = divmod_small x chunk in
        peel q (r :: acc)
    in
    match peel a [] with
    | [] -> "0"
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun r -> Buffer.add_string buf (Printf.sprintf "%09d" r)) rest;
      Buffer.contents buf
  end

let of_string s =
  if String.length s = 0 then invalid_arg "Nat.of_string: empty string";
  String.iter
    (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a decimal digit")
    s;
  (* Consume 9-digit chunks: acc = acc * 10^k + chunk. *)
  let n = String.length s in
  let acc = ref zero in
  let pos = ref 0 in
  while !pos < n do
    let len = min 9 (n - !pos) in
    let chunk = int_of_string (String.sub s !pos len) in
    let pow10 = int_of_float (10. ** float_of_int len) in
    acc := add (mul !acc (of_int pow10)) (of_int chunk);
    pos := !pos + len
  done;
  !acc

let to_hex a =
  if is_zero a then "0"
  else begin
    let nb = bit_length a in
    let ndigits = (nb + 3) / 4 in
    let buf = Buffer.create ndigits in
    for d = ndigits - 1 downto 0 do
      let v = ref 0 in
      for bit = 3 downto 0 do
        v := (!v lsl 1) lor (if test_bit a ((d * 4) + bit) then 1 else 0)
      done;
      Buffer.add_char buf "0123456789abcdef".[!v]
    done;
    Buffer.contents buf
  end

let of_hex s =
  if String.length s = 0 then invalid_arg "Nat.of_hex: empty string";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: not a hex digit"
  in
  String.fold_left (fun acc c -> add (shift_left acc 4) (of_int (digit c))) zero s

let pp fmt a = Format.pp_print_string fmt (to_string a)

let random_bits st k =
  if k < 0 then invalid_arg "Nat.random_bits: negative bit count";
  if k = 0 then zero
  else begin
    let nlimbs = (k + limb_bits - 1) / limb_bits in
    let a = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      a.(i) <- Spe_rng.State.next_bits st limb_bits
    done;
    let top_bits = k - ((nlimbs - 1) * limb_bits) in
    a.(nlimbs - 1) <- a.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    norm a
  end

let random_bits_exact st k =
  if k <= 0 then invalid_arg "Nat.random_bits_exact: bit count must be positive";
  let a = random_bits st k in
  (* Force the top bit so the value has exactly k bits. *)
  let limb = (k - 1) / limb_bits and bit = (k - 1) mod limb_bits in
  let n = max (Array.length a) (limb + 1) in
  let r = Array.make n 0 in
  Array.blit a 0 r 0 (Array.length a);
  r.(limb) <- r.(limb) lor (1 lsl bit);
  norm r

let to_limbs a ~width =
  if Array.length a > width then invalid_arg "Nat.to_limbs: width too small";
  let out = Array.make width 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

let of_limbs a = norm (Array.copy a)

let random_below st bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let k = bit_length bound in
  let rec loop () =
    let c = random_bits st k in
    if compare c bound < 0 then c else loop ()
  in
  loop ()
