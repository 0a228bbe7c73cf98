(* Unit tests for the wr_util foundation library. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check ci "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let child = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int r 1000) in
  let ys = List.init 20 (fun _ -> Rng.int child 1000) in
  check cb "streams differ" true (xs <> ys)

let test_rng_bernoulli_extremes () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    check cb "p=0 never" false (Rng.bernoulli r 0.0)
  done;
  for _ = 1 to 50 do
    check cb "p=1 always" true (Rng.bernoulli r 1.0)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create 17 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check cb "same multiset" true (sorted = Array.init 30 Fun.id)

(* ---- Vec ---- *)

let vec_of_list l =
  let v = Vec.create () in
  List.iter (Vec.push v) l;
  v

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check ci "length" 100 (Vec.length v);
  check ci "get" 49 (Vec.get v 7)

let test_vec_bounds () =
  let v = vec_of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_iterators () =
  let v = vec_of_list [ 1; 2; 3; 4 ] in
  check (Alcotest.list ci) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  check (Alcotest.array ci) "to_array" [| 1; 2; 3; 4 |] (Vec.to_array v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  check ci "iter sum" 10 !sum

(* ---- Bitset ---- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.unsafe_add b 0;
  Bitset.unsafe_add b 63;
  Bitset.unsafe_add b 99;
  check cb "mem 0" true (Bitset.mem b 0);
  check cb "mem 63" true (Bitset.mem b 63);
  check cb "mem 50" false (Bitset.mem b 50);
  check cb "unsafe_mem 99" true (Bitset.unsafe_mem b 99);
  Bitset.unsafe_remove b 63;
  check cb "removed" false (Bitset.mem b 63);
  check cb "others kept" true (Bitset.mem b 0 && Bitset.mem b 99);
  Bitset.clear b;
  check cb "cleared" false (Bitset.mem b 0 || Bitset.mem b 99)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: out of range") (fun () ->
      ignore (Bitset.mem b 10))

(* ---- Combinat ---- *)

let fact n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

let test_permutations_count () =
  List.iter
    (fun n ->
      let perms = ref [] in
      Combinat.iter_permutations (fun a -> perms := Array.to_list a :: !perms) (Array.init n Fun.id);
      check ci (Printf.sprintf "%d! perms" n) (fact n) (List.length !perms);
      check ci "all distinct" (fact n) (List.length (List.sort_uniq compare !perms)))
    [ 0; 1; 2; 3; 4; 5 ]

let test_iter_permutations () =
  let count = ref 0 in
  let seen = Hashtbl.create 16 in
  Combinat.iter_permutations
    (fun a ->
      incr count;
      Hashtbl.replace seen (Array.to_list a) ())
    [| 1; 2; 3; 4 |];
  check ci "24 visits" 24 !count;
  check ci "24 distinct" 24 (Hashtbl.length seen)

let test_cartesian () =
  let prod = Combinat.cartesian [ [ 1; 2 ]; [ 3 ]; [ 4; 5; 6 ] ] in
  check ci "2*1*3" 6 (List.length prod);
  check cb "member" true (List.mem [ 2; 3; 5 ] prod)

(* ---- Stats ---- *)

let cf = Alcotest.float 1e-9

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check ci "count" 8 (Stats.count s);
  check cf "mean" 5.0 (Stats.mean s);
  check cf "max" 9.0 (Stats.max_value s)

let test_stats_percentile () =
  let s = Stats.create () in
  List.iter (fun i -> Stats.add s (float_of_int i)) (List.init 100 (fun i -> i + 1));
  check cf "p50" 50.0 (Stats.percentile s 50.0);
  check cf "p95" 95.0 (Stats.percentile s 95.0);
  check cf "p100" 100.0 (Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Stats.create () in
  check ci "empty count" 0 (Stats.count s);
  check cf "empty mean" 0.0 (Stats.mean s);
  check cf "empty percentile" 0.0 (Stats.percentile s 50.0);
  check cf "empty max" neg_infinity (Stats.max_value s)

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "long-name"; "22" ];
  let out = Table.render t in
  check cb "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  check ci "4 lines + trailing" 5 (List.length lines);
  (* right-aligned values line up at the same column *)
  let value_col s = String.rindex_opt s '2' in
  (match (List.nth lines 2, List.nth lines 3) with
  | a, b ->
    let ca = String.rindex_opt a '1' and cb_ = value_col b in
    check (Alcotest.option ci) "aligned" ca cb_)

let test_table_errors () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "row length" (Invalid_argument "Table.add_row: row length") (fun () ->
      Table.add_row t [ "only-one" ])

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "permutations count" `Quick test_permutations_count;
          Alcotest.test_case "iter_permutations" `Quick test_iter_permutations;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
        ] );
      ( "stats",
        [
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "table",
        [
          Alcotest.test_case "render/alignment" `Quick test_table_render;
          Alcotest.test_case "errors" `Quick test_table_errors;
        ] );
    ]
