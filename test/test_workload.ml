(* Tests for synthetic traffic patterns and workload measurement. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let mesh4 = Builders.mesh [ 4; 4 ]

let test_transpose () =
  let p = Traffic.transpose mesh4 in
  let src = mesh4.node_at [| 1; 3 |] in
  check (Alcotest.option ci) "swap" (Some (mesh4.node_at [| 3; 1 |])) (p.Traffic.dest src);
  (* diagonal nodes are fixed points and stay silent *)
  check (Alcotest.option ci) "fixed point" None (p.Traffic.dest (mesh4.node_at [| 2; 2 |]))

let test_transpose_requires_square () =
  let rect = Builders.mesh [ 2; 4 ] in
  Alcotest.check_raises "square only"
    (Invalid_argument "Traffic.transpose: square 2-D scheme required") (fun () ->
      ignore (Traffic.transpose rect))

let test_bit_complement () =
  let p = Traffic.bit_complement mesh4 in
  check (Alcotest.option ci) "mirror" (Some (mesh4.node_at [| 3; 0 |]))
    (p.Traffic.dest (mesh4.node_at [| 0; 3 |]))

let test_bit_reverse () =
  let h = Builders.hypercube 3 in
  let p = Traffic.bit_reverse h in
  (* node 001 -> 100 *)
  check (Alcotest.option ci) "reverse" (Some (h.node_at [| 1; 0; 0 |]))
    (p.Traffic.dest (h.node_at [| 0; 0; 1 |]))

let test_tornado () =
  let t5 = Builders.torus [ 5 ] in
  let p = Traffic.tornado t5 in
  (* radix 5: shift by ceil(5/2)-1 = 2 *)
  check (Alcotest.option ci) "shift 2" (Some 2) (p.Traffic.dest 0);
  check (Alcotest.option ci) "wraps" (Some 1) (p.Traffic.dest 4)

let test_neighbor () =
  let p = Traffic.neighbor mesh4 in
  check (Alcotest.option ci) "+1 dim0" (Some (mesh4.node_at [| 1; 0 |]))
    (p.Traffic.dest (mesh4.node_at [| 0; 0 |]))

let test_uniform_never_self () =
  let rng = Rng.create 4 in
  let p = Traffic.uniform rng mesh4 in
  for src = 0 to 15 do
    for _ = 1 to 50 do
      match p.Traffic.dest src with
      | Some d -> if d = src then Alcotest.fail "self-destination"
      | None -> Alcotest.fail "uniform always has a destination"
    done
  done

let test_hotspot_bias () =
  let rng = Rng.create 4 in
  let spot = mesh4.node_at [| 0; 0 |] in
  let p = Traffic.hotspot rng mesh4 spot in
  let hits = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    match p.Traffic.dest (mesh4.node_at [| 3; 3 |]) with
    | Some d when d = spot -> incr hits
    | _ -> ()
  done;
  (* ~20% + uniform share; far more than the uniform 1/15 *)
  check cb "biased" true (!hits > n / 5)

let test_permutation_schedule () =
  let sched = Traffic.permutation_schedule (Traffic.transpose mesh4) ~coords:mesh4 ~length:5 in
  (* 16 nodes minus the 4 diagonal fixed points *)
  check ci "12 messages" 12 (List.length sched);
  List.iter
    (fun (m : Schedule.message_spec) ->
      check ci "length" 5 m.ms_length;
      check ci "at zero" 0 m.ms_inject_at)
    sched

let test_bernoulli_schedule_deterministic () =
  let mk () =
    let rng = Rng.create 123 in
    let p = Traffic.uniform rng mesh4 in
    Traffic.bernoulli_schedule rng p ~coords:mesh4 ~rate:0.05 ~length:3 ~horizon:100
  in
  let a = mk () and b = mk () in
  check cb "same schedule from same seed" true (a = b);
  check cb "labels unique" true
    (let labels = List.map (fun (m : Schedule.message_spec) -> m.ms_label) a in
     List.length (List.sort_uniq compare labels) = List.length labels);
  List.iter
    (fun (m : Schedule.message_spec) ->
      check cb "time in horizon" true (m.ms_inject_at >= 0 && m.ms_inject_at < 100))
    a

let test_bernoulli_rejects_bad_inputs () =
  let gen ~rate ~horizon () =
    let rng = Rng.create 1 in
    let p = Traffic.uniform rng mesh4 in
    ignore (Traffic.bernoulli_schedule rng p ~coords:mesh4 ~rate ~length:1 ~horizon)
  in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Traffic.bernoulli_schedule: rate -1 outside [0, 1]")
    (gen ~rate:(-1.) ~horizon:10);
  Alcotest.check_raises "rate above 1"
    (Invalid_argument "Traffic.bernoulli_schedule: rate 2 outside [0, 1]")
    (gen ~rate:2. ~horizon:10);
  Alcotest.check_raises "NaN rate"
    (Invalid_argument "Traffic.bernoulli_schedule: rate nan outside [0, 1]")
    (gen ~rate:Float.nan ~horizon:10);
  Alcotest.check_raises "negative horizon"
    (Invalid_argument "Traffic.bernoulli_schedule: negative horizon -1")
    (gen ~rate:0.5 ~horizon:(-1));
  (* the closed interval's ends and an empty horizon stay valid *)
  gen ~rate:0. ~horizon:10 ();
  gen ~rate:1. ~horizon:0 ()

let test_bernoulli_rate_scales () =
  let count rate =
    let rng = Rng.create 7 in
    let p = Traffic.uniform rng mesh4 in
    List.length (Traffic.bernoulli_schedule rng p ~coords:mesh4 ~rate ~length:1 ~horizon:200)
  in
  let low = count 0.01 and high = count 0.1 in
  check cb "more traffic at higher rate" true (high > 3 * low)

let test_measure_delivery () =
  let rt = Dimension_order.mesh mesh4 in
  let sched = Traffic.permutation_schedule (Traffic.transpose mesh4) ~coords:mesh4 ~length:4 in
  let rep = Measure.run rt sched in
  check ci "all delivered" rep.Measure.total rep.Measure.delivered;
  check cb "not deadlocked" false rep.Measure.deadlocked;
  check cb "positive latency" true (rep.Measure.avg_latency > 0.0);
  check cb "p95 >= avg intuition" true (rep.Measure.p95_latency >= 1.0);
  check cb "throughput positive" true (rep.Measure.throughput > 0.0)

let test_measure_deadlock () =
  let t5 = Builders.torus [ 5; 5 ] in
  let rt = Dimension_order.torus t5 in
  let sched = Traffic.permutation_schedule (Traffic.tornado t5) ~coords:t5 ~length:8 in
  let rep = Measure.run rt sched in
  check cb "deadlocked" true rep.Measure.deadlocked

let test_measure_pp () =
  let rt = Dimension_order.mesh mesh4 in
  let sched = [ Schedule.message ~length:2 "m" 0 5 ] in
  let rep = Measure.run rt sched in
  let s = Format.asprintf "%a" Measure.pp rep in
  check cb "renders" true (String.length s > 20)

let () =
  Alcotest.run "workload"
    [
      ( "patterns",
        [
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "transpose square-only" `Quick test_transpose_requires_square;
          Alcotest.test_case "bit complement" `Quick test_bit_complement;
          Alcotest.test_case "bit reverse" `Quick test_bit_reverse;
          Alcotest.test_case "tornado" `Quick test_tornado;
          Alcotest.test_case "neighbor" `Quick test_neighbor;
          Alcotest.test_case "uniform no self" `Quick test_uniform_never_self;
          Alcotest.test_case "hotspot bias" `Quick test_hotspot_bias;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "permutation" `Quick test_permutation_schedule;
          Alcotest.test_case "bernoulli deterministic" `Quick test_bernoulli_schedule_deterministic;
          Alcotest.test_case "rate scales" `Quick test_bernoulli_rate_scales;
          Alcotest.test_case "bernoulli input checks" `Quick test_bernoulli_rejects_bad_inputs;
        ] );
      ( "measure",
        [
          Alcotest.test_case "delivery stats" `Quick test_measure_delivery;
          Alcotest.test_case "deadlock reported" `Quick test_measure_deadlock;
          Alcotest.test_case "pp" `Quick test_measure_pp;
        ] );
    ]
