type t = {
  n : int;
  words : int array; (* 62 usable bits per word keeps everything in immediates *)
}

let bits_per_word = 62

let create n =
  let words = ((max n 1) + bits_per_word - 1) / bits_per_word in
  { n; words = Array.make words 0 }

let mem t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: out of range";
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Unchecked variants for hot loops that maintain their own bounds (the
   simulator's struct-of-arrays kernel indexes by a validated message id
   every cycle; re-checking the range there is pure overhead). *)
let unsafe_mem t i =
  Array.unsafe_get t.words (i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let unsafe_add t i =
  let w = i / bits_per_word in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl (i mod bits_per_word)))

let unsafe_remove t i =
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i mod bits_per_word)))
