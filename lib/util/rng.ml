type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 step: advance by the golden-ratio increment and scramble. *)
let int64 t =
  t.state <- Int64.add t.state gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let s = int64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, as in the standard doubles-from-bits recipe. *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
