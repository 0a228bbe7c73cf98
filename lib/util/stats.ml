type t = {
  mutable n : int;
  mutable mean : float;
  mutable maxv : float;
  samples : float Vec.t; (* retained for percentile queries *)
}

let create () = { n = 0; mean = 0.0; maxv = neg_infinity; samples = Vec.create () }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
  if x > t.maxv then t.maxv <- x;
  Vec.push t.samples x

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let max_value t = t.maxv

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let a = Vec.to_array t.samples in
    Array.sort compare a;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
    let idx = max 0 (min (t.n - 1) (rank - 1)) in
    a.(idx)
  end
