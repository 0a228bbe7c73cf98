(* Heap's algorithm: generates each permutation with a single swap. *)
let iter_permutations f a =
  let n = Array.length a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec go k =
    if k <= 1 then f a
    else begin
      for i = 0 to k - 1 do
        go (k - 1);
        if i < k - 1 then if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
      done
    end
  in
  if n = 0 then f a else go n

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = cartesian rest in
    List.concat_map (fun x -> List.map (fun t -> x :: t) tails) choices
