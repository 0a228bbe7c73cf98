(* Wr_pool determinism contract.

   Property tests check the pool against its sequential specification for
   random task lists and domain counts; the campaign-level tests run whole
   experiments (EXP-F1, EXP-T5) at one and at four domains and require the
   captured output -- claim lines, run counts, witness schedules -- to be
   byte-identical.

   The four-domain campaigns run FIRST: the pool's helper budget is sized on
   first parallel use, so the forced multi-domain passes must come before
   anything collapses the default. *)

let qtest = QCheck_alcotest.to_alcotest

let f x = (x * x) - (3 * x) + 1

let domains_gen = QCheck.int_range 1 4

(* ---- map = List.map ---- *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Wr_pool.map = List.map" ~count:100
    QCheck.(pair domains_gen (list small_int))
    (fun (d, l) -> Wr_pool.map ~domains:d f l = List.map f l)

let prop_mapi_matches_array_mapi =
  QCheck.Test.make ~name:"Wr_pool.mapi_array = Array.mapi" ~count:100
    QCheck.(pair domains_gen (array small_int))
    (fun (d, a) ->
      Wr_pool.mapi_array ~domains:d (fun i x -> (i, f x)) a
      = Array.mapi (fun i x -> (i, f x)) a)

(* ---- map_until = the documented sequential loop ---- *)

let seq_map_until ~hit g tasks =
  let n = Array.length tasks in
  let r = Array.make n None in
  (try
     for i = 0 to n - 1 do
       let v = g i tasks.(i) in
       r.(i) <- Some v;
       if hit v then raise Exit
     done
   with Exit -> ());
  r

let prop_map_until_matches_sequential =
  QCheck.Test.make ~name:"Wr_pool.map_until = sequential loop" ~count:100
    QCheck.(triple domains_gen (int_range 1 20) (array small_int))
    (fun (d, modulus, a) ->
      let hit v = v mod modulus = 0 in
      let g i x = (i * 7) + f x in
      Wr_pool.map_until ~domains:d ~hit (fun ~stop:_ i x -> g i x) a
      = seq_map_until ~hit g a)

let prop_map_same_for_all_domain_counts =
  QCheck.Test.make ~name:"map identical across domain counts" ~count:50
    QCheck.(list small_int)
    (fun l ->
      let r1 = Wr_pool.map ~domains:1 f l in
      List.for_all (fun d -> Wr_pool.map ~domains:d f l = r1) [ 2; 3; 4 ])

(* ---- whole campaigns: claim output and witness schedules ---- *)

let capture exp =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let rows = exp ppf in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, rows)

(* one experiment at an explicit domain count; Explorer/Min_delay/
   Model_checker pick the default up from set_default_domains *)
let run_at ~domains exp =
  Wr_pool.set_default_domains domains;
  Fun.protect ~finally:(fun () -> Wr_pool.set_default_domains 1) (fun () -> capture exp)

let check_campaign name exp () =
  let out4, rows4 = run_at ~domains:4 exp in
  let out1, rows1 = run_at ~domains:1 exp in
  Alcotest.(check int)
    (name ^ ": same claim count") (List.length rows1) (List.length rows4);
  List.iter2
    (fun (r1 : Experiments.row) (r4 : Experiments.row) ->
      Alcotest.(check string) (name ^ ": claim id") r1.x_id r4.x_id;
      Alcotest.(check string) (name ^ ": measured value") r1.x_measured r4.x_measured;
      Alcotest.(check bool) (name ^ ": verdict") r1.x_ok r4.x_ok)
    rows1 rows4;
  (* the captured output includes run counts and full witness schedules *)
  Alcotest.(check string) (name ^ ": byte-identical output") out1 out4;
  Alcotest.(check bool) (name ^ ": all claims hold") true
    (List.for_all (fun (r : Experiments.row) -> r.x_ok) rows1)

let campaign_tests =
  [
    Alcotest.test_case "exp-f1 identical at 1 and 4 domains" `Slow
      (check_campaign "exp-f1" (Experiments.exp_f1 ~quick:true));
    Alcotest.test_case "exp-t5 identical at 1 and 4 domains" `Quick
      (check_campaign "exp-t5" (Experiments.exp_t5 ~quick:true));
  ]

let () =
  Alcotest.run "pool"
    [
      (* campaigns first: they must size the helper budget while the
         default is still multi-domain (see header comment) *)
      ("campaign-determinism", campaign_tests);
      ( "pool-vs-sequential",
        [
          qtest prop_map_matches_list_map;
          qtest prop_mapi_matches_array_mapi;
          qtest prop_map_until_matches_sequential;
          qtest prop_map_same_for_all_domain_counts;
        ] );
    ]
