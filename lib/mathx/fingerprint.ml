(* Shoup's precomputed quotient for multiplying by a fixed [point]
   below a prime [p < 2^31]: with [recip = floor (point * 2^31 / p)]
   and [x < p], [q = (x * recip) lsr 31] is the quotient of
   [x * point / p] or one less, so [x * point - q * p] lies in
   [0, 2p) and one subtraction reduces it.  Every product stays below
   2^62.  At or above 2^31 there is no reciprocal (-1) and the fold
   calls [Modarith.mulmod]. *)
let reciprocal ~p ~point = if p < 1 lsl 31 then (point lsl 31) / p else -1

(* [s] in [0, 2p) to [s mod p] with no branch: [d asr 62] is -1 when
   [d] is negative, 0 otherwise. *)
let[@inline] reduce ~p s =
  let d = s - p in
  d + ((d asr 62) land p)

let[@inline] shoup ~p ~c ~recip x = reduce ~p ((x * c) - (((x * recip) lsr 31) * p))

(* The number of independent lanes of a word fold below 2^31. *)
let lanes = 4

(* One word of bits, with both running values held in locals: bit [i]
   adds t^(idx+i) to the fingerprint, and t^idx moves on to
   t^(idx+len).

   Below 2^31 one chain of products per bit would leave the multiplier
   waiting on each result, so the word is split into four lanes: lane
   [j] starts at t^(idx+j), steps by t^4 and gathers the bits
   [i = j mod 4].  Lane sums are at most 15 values below p < 2^31, so
   they are added unreduced and reduced once at the end of the word.
   t^2 .. t^4 and the reciprocal of t^4 are locals of the call; the
   last [len mod 4] bits, and words shorter than four bits, take the
   serial chain from lane 0.  A bit is added as [pow land (-bit)]. *)
let fold_word ~p ~point ~recip ~pow ~acc ~bits ~len =
  if recip >= 0 then begin
    let groups = len / lanes in
    let q0 = ref pow and acc = ref acc in
    if groups > 0 then begin
      let t2 = shoup ~p ~c:point ~recip point in
      let t4 = shoup ~p ~c:point ~recip (shoup ~p ~c:point ~recip t2) in
      let r4 = reciprocal ~p ~point:t4 in
      let q1 = ref (shoup ~p ~c:point ~recip pow) in
      let q2 = ref (shoup ~p ~c:point ~recip !q1) in
      let q3 = ref (shoup ~p ~c:point ~recip !q2) in
      let a0 = ref 0 and a1 = ref 0 and a2 = ref 0 and a3 = ref 0 in
      for g = 0 to groups - 1 do
        let b = bits lsr (g * lanes) in
        a0 := !a0 + (!q0 land -(b land 1));
        a1 := !a1 + (!q1 land -((b lsr 1) land 1));
        a2 := !a2 + (!q2 land -((b lsr 2) land 1));
        a3 := !a3 + (!q3 land -((b lsr 3) land 1));
        q0 := shoup ~p ~c:t4 ~recip:r4 !q0;
        q1 := shoup ~p ~c:t4 ~recip:r4 !q1;
        q2 := shoup ~p ~c:t4 ~recip:r4 !q2;
        q3 := shoup ~p ~c:t4 ~recip:r4 !q3
      done;
      acc := (!acc + !a0 + !a1 + !a2 + !a3) mod p
    end;
    for i = groups * lanes to len - 1 do
      acc := reduce ~p (!acc + (!q0 land -((bits lsr i) land 1)));
      q0 := shoup ~p ~c:point ~recip !q0
    done;
    (!q0, !acc)
  end
  else begin
    let pow = ref pow and acc = ref acc in
    for i = 0 to len - 1 do
      if (bits lsr i) land 1 = 1 then begin
        let s = !acc + !pow in
        acc := if s >= p then s - p else s
      end;
      pow := Modarith.mulmod !pow point p
    done;
    (!pow, !acc)
  end

let of_bitvec ~p ~t v =
  if p < 2 then invalid_arg "Fingerprint.of_bitvec: modulus too small";
  let point = ((t mod p) + p) mod p in
  let recip = reciprocal ~p ~point in
  let pow = ref 1 and acc = ref 0 in
  Bitvec.iter_words
    (fun bits len ->
      let pw, a = fold_word ~p ~point ~recip ~pow:!pow ~acc:!acc ~bits ~len in
      pow := pw;
      acc := a)
    v;
  !acc
