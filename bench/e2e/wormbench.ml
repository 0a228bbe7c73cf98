(* wormbench: the measuring process of the end-to-end benchmark.

   bench/e2e/run.py starts one wormbench process per pass, one at a time:

     wormbench.exe pass WORKLOAD --seed N --domains D [--trace] [--smoke]
     wormbench.exe probes --seed N --domains D [--smoke]

   A pass builds its workload's inputs from the seed, prints "ready" (the
   runner times process start up to that line as the set-up), makes the
   workload's library calls one after another, and prints one JSON object:
   the wall time of those calls, the checks the runner compares against
   expected/<workload>.json, the per-layer numbers and the GC deltas.

   Nothing under lib/ is instrumented.  Every layer number is a clock read
   around a call into a public function, taken here.  A traced pass
   (--trace) adds standalone calls into the layers the workload's calls
   use internally (schedule validation, a stats-armed run, the CDG and
   property checkers); those calls are timed on their own and kept out of
   the pass wall time.  [probes] times fixed inputs for the switching kernel
   and the Explorer sweep; it runs only in traced runs. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- what one process reports ---- *)

let layers = ref []
let layer name v = layers := (name, v) :: !layers
let checks = ref []
let check name v = checks := (name, v) :: !checks

type opts = { seed : int; trace : bool; smoke : bool }

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_report ~wall ~minor_words ~major_collections =
  let str s = "\"" ^ Diagnostic.json_escape s ^ "\"" in
  let obj kvs = "{" ^ String.concat ", " kvs ^ "}" in
  let kv k v = str k ^ ": " ^ v in
  print_endline
    (obj
       [
         kv "wall_s" (json_float wall);
         kv "gc_minor_words" (json_float minor_words);
         kv "gc_major_collections" (string_of_int major_collections);
         kv "ocaml" (str Sys.ocaml_version);
         kv "recommended_domains" (string_of_int (Domain.recommended_domain_count ()));
         kv "domains" (string_of_int (Wr_pool.default_domains ()));
         kv "checks"
           ("["
           ^ String.concat ", "
               (List.rev_map (fun (k, v) -> "[" ^ str k ^ ", " ^ str v ^ "]") !checks)
           ^ "]");
         kv "layers" (obj (List.rev_map (fun (k, v) -> kv k (json_float v)) !layers));
       ])

(* Canonical rendering of an outcome, hashed: equal digests mean the run
   took identical decisions (every injection and delivery cycle, every
   retry and fate). *)
let outcome_digest (o : Engine.outcome) =
  let b = Buffer.create 65536 in
  let opt = function None -> -1 | Some c -> c in
  let msgs =
    List.iter (fun (m : Engine.message_result) ->
        Printf.bprintf b "%s %d %d\n" m.r_label (opt m.r_injected_at) (opt m.r_delivered_at))
  in
  (match o with
  | Engine.All_delivered { finished_at; messages } ->
    Printf.bprintf b "all-delivered %d\n" finished_at;
    msgs messages
  | Engine.Recovered { finished_at; messages; stats } ->
    Printf.bprintf b "recovered %d\n" finished_at;
    msgs messages;
    List.iter
      (fun (s : Engine.retry_stat) ->
        Printf.bprintf b "%s %d %s\n" s.t_label s.t_retries
          (Format.asprintf "%a" Engine.pp_fate s.t_fate))
      stats
  | Engine.Cutoff { at; messages } ->
    Printf.bprintf b "cutoff %d\n" at;
    msgs messages
  | Engine.Deadlock d -> Printf.bprintf b "deadlock %d\n" d.Engine.d_cycle);
  Digest.to_hex (Digest.string (Buffer.contents b))

let finished_at = function
  | Engine.All_delivered { finished_at; _ } | Engine.Recovered { finished_at; _ } -> finished_at
  | Engine.Cutoff { at; _ } -> at
  | Engine.Deadlock d -> d.Engine.d_cycle

(* Delivered flit-hops: message length x route hops, summed over the
   messages the run delivered (a retried message counts once). *)
let flit_hops rt (sched : Schedule.t) (o : Engine.outcome) =
  let messages =
    match o with
    | Engine.All_delivered { messages; _ }
    | Engine.Recovered { messages; _ }
    | Engine.Cutoff { messages; _ } -> messages
    | Engine.Deadlock _ -> []
  in
  let hops = Hashtbl.create 4096 in
  let hop_count s d =
    match Hashtbl.find_opt hops (s, d) with
    | Some h -> h
    | None ->
      let h = List.length (Routing.path_exn rt s d) in
      Hashtbl.add hops (s, d) h;
      h
  in
  if messages = [] then 0.
  else
    List.fold_left2
      (fun acc (ms : Schedule.message_spec) (m : Engine.message_result) ->
        if m.r_delivered_at = None then acc
        else acc +. float_of_int (ms.ms_length * hop_count ms.ms_src ms.ms_dst))
      0. sched messages

(* ---- campaign: the run_experiments campaign, quick spaces ---- *)

(* run_experiments order.  The campaign has no random inputs, so the seed
   is unused. *)
let experiments =
  [
    ("exp-f1", fun ppf -> Experiments.exp_f1 ~quick:true ppf);
    ("exp-t2", fun ppf -> Experiments.exp_t2 ~quick:true ppf);
    ("exp-corollaries", fun ppf -> Experiments.exp_corollaries ~quick:true ppf);
    ("exp-t3", fun ppf -> Experiments.exp_t3 ~quick:true ppf);
    ("exp-t4", fun ppf -> Experiments.exp_t4 ~quick:true ppf);
    ("exp-t5", fun ppf -> Experiments.exp_t5 ~quick:true ppf);
    ("exp-g", fun ppf -> Experiments.exp_g ~quick:true ppf);
    ("exp-s1", fun ppf -> Experiments.exp_s1 ~quick:true ppf);
    ("exp-s2", fun ppf -> Experiments.exp_s2 ~quick:true ppf);
    ("exp-mfm", fun ppf -> Experiments.exp_mfm ~quick:true ppf);
    ("exp-a", fun ppf -> Experiments.exp_a ~quick:true ppf);
    ("exp-sw", fun ppf -> Experiments.exp_sw ~quick:true ppf);
    ("exp-sw1", fun ppf -> Experiments.exp_sw1 ~quick:true ppf);
    ("exp-mc", fun ppf -> Experiments.exp_mc ~quick:true ppf);
    ("exp-fault", fun ppf -> Experiments.exp_fault ~quick:true ppf);
    ("exp-detect", fun ppf -> Experiments.exp_detect ~quick:true ppf);
    ("exp-lint", fun ppf -> Experiments.exp_lint ~quick:true ppf);
    ("exp-synth", fun ppf -> Experiments.exp_synth ~quick:true ppf);
  ]

let campaign o =
  let chosen =
    if o.smoke then List.filter (fun (n, _) -> n = "exp-t4" || n = "exp-detect") experiments
    else experiments
  in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  fun () ->
    let claims = ref 0 and covered = ref 0. in
    let t0 = now () in
    List.iter
      (fun (name, exp) ->
        let r0 = Engine.run_count () and c0 = Engine.cancelled_count () in
        let rows, dt = time (fun () -> exp null) in
        let runs = Engine.run_count () - r0 and dropped = Engine.cancelled_count () - c0 in
        covered := !covered +. dt;
        layer (Printf.sprintf "experiments.%s.wall_s" name) dt;
        layer (Printf.sprintf "experiments.%s.engine_runs" name) (float_of_int (runs - dropped));
        List.iter
          (fun (r : Experiments.row) ->
            incr claims;
            check ("claim:" ^ r.x_id) (if r.x_ok then "ok" else "NO"))
          rows)
      chosen;
    let wall = now () -. t0 in
    if not o.smoke then check "claims" (string_of_int !claims);
    layer "trace.coverage" (!covered /. wall);
    wall

(* ---- mesh-sat: XY routing on a 16x16 mesh, open-loop Bernoulli ---- *)

let mesh_runs =
  [ ("u006", `Uniform, 0.006); ("u012", `Uniform, 0.012); ("u018", `Uniform, 0.018);
    ("u022", `Uniform, 0.022); ("t008", `Transpose, 0.008) ]

let mesh_sat o =
  let horizon = if o.smoke then 300 else 4000 in
  let coords = Builders.mesh [ 16; 16 ] in
  let rt = Dimension_order.mesh coords in
  let master = Rng.create o.seed in
  let runs =
    List.map
      (fun (name, pattern, rate) ->
        let rng = Rng.split master in
        let pattern =
          match pattern with
          | `Uniform -> Traffic.uniform rng coords
          | `Transpose -> Traffic.transpose coords
        in
        (name, Traffic.bernoulli_schedule rng pattern ~coords ~rate ~length:8 ~horizon))
      mesh_runs
  in
  fun () ->
    let wall = ref 0. and cycles = ref 0. and hops = ref 0. in
    List.iter
      (fun (name, sched) ->
        let out, dt = time (fun () -> Engine.run rt sched) in
        wall := !wall +. dt;
        let c = float_of_int (finished_at out) in
        cycles := !cycles +. c;
        hops := !hops +. flit_hops rt sched out;
        check ("outcome:" ^ name) (Engine.outcome_string out);
        if not o.smoke then check ("digest:" ^ name) (outcome_digest out);
        layer ("engine.run_s." ^ name) dt;
        layer ("engine.us_per_sim_cycle." ^ name) (dt /. c *. 1e6);
        if o.trace then begin
          let _, v = time (fun () -> Schedule.validate_paths rt sched) in
          layer ("schedule.validate_s." ^ name) v;
          if name = "u012" then begin
            let st = Obs_stats.create ~nchan:(Topology.num_channels coords.Builders.topo) in
            let _, ds = time (fun () -> Engine.run ~stats:st rt sched) in
            layer "obs_stats.overhead_ratio" (ds /. dt)
          end
        end)
      runs;
    layer "sim.cycles_per_s.mesh-sat" (!cycles /. !wall);
    layer "sim.flit_hops_per_s.mesh-sat" (!hops /. !wall);
    !wall

(* ---- torus-recover: VC-less e-cube on an 8x8 torus, recovery armed ---- *)

let torus_recover o =
  let horizon = if o.smoke then 300 else 4000 in
  let coords = Builders.torus [ 8; 8 ] in
  let rt = Dimension_order.torus coords in
  let master = Rng.create o.seed in
  let scheds =
    List.map
      (fun (name, rate) ->
        let rng = Rng.split master in
        let pattern = Traffic.uniform rng coords in
        (name, Traffic.bernoulli_schedule rng pattern ~coords ~rate ~length:16 ~horizon))
      [ ("r010", 0.01); ("r020", 0.02); ("r040", 0.04) ]
  in
  let triggers =
    [
      ("detect", Engine.Detect Obs_detect.default_config);
      ("watchdog", Engine.default_recovery.Engine.trigger);
    ]
  in
  fun () ->
    let wall = ref 0. and cycles = ref 0. and hops = ref 0. in
    List.iter
      (fun (tname, trigger) ->
        let config =
          {
            Engine.default_config with
            recovery = Some { Engine.default_recovery with trigger };
          }
        in
        let t_wall = ref 0. and t_cycles = ref 0. in
        let aborts = ref 0 and delivered = ref 0 and gave_up = ref 0 in
        List.iter
          (fun (sname, sched) ->
            let name = tname ^ "-" ^ sname in
            let out, dt = time (fun () -> Engine.run ~config rt sched) in
            t_wall := !t_wall +. dt;
            t_cycles := !t_cycles +. float_of_int (finished_at out);
            hops := !hops +. flit_hops rt sched out;
            let terminated =
              match out with
              | Engine.All_delivered { messages; _ } ->
                delivered := !delivered + List.length messages;
                true
              | Engine.Recovered { stats; _ } ->
                List.iter
                  (fun (s : Engine.retry_stat) ->
                    aborts := !aborts + s.t_retries;
                    match s.t_fate with
                    | Engine.Delivered -> incr delivered
                    | Engine.Gave_up -> incr gave_up
                    | Engine.Dropped -> ())
                  stats;
                List.length stats = List.length sched
              | Engine.Deadlock _ | Engine.Cutoff _ -> false
            in
            check ("terminated:" ^ name) (if terminated then "yes" else "no");
            if not o.smoke then check ("digest:" ^ name) (outcome_digest out))
          scheds;
        wall := !wall +. !t_wall;
        cycles := !cycles +. !t_cycles;
        layer (Printf.sprintf "engine.%s_us_per_sim_cycle" tname) (!t_wall /. !t_cycles *. 1e6);
        layer (Printf.sprintf "recover.%s.aborts" tname) (float_of_int !aborts);
        layer (Printf.sprintf "recover.%s.delivered" tname) (float_of_int !delivered);
        layer (Printf.sprintf "recover.%s.gave_up" tname) (float_of_int !gave_up))
      triggers;
    layer "sim.cycles_per_s.torus-recover" (!cycles /. !wall);
    layer "sim.flit_hops_per_s.torus-recover" (!hops /. !wall);
    !wall

(* ---- certify-large: Verify and Lint on large networks, then Synth ---- *)

(* Fixed networks, so the seed is unused.  The order is fixed too: it moves
   the GC's heap peak by up to a third. *)

let conclusion_string (r : Verify.report) =
  match r.conclusion with
  | Verify.Deadlock_free _ -> "deadlock-free"
  | Verify.Deadlocks _ -> "deadlocks"
  | Verify.Unknown _ -> "unknown"

let certify_large o =
  let k big small = if o.smoke then small else big in
  (* name, routing, expected deadlock-free *)
  let algorithms =
    [
      ("xy-mesh", Dimension_order.mesh (Builders.mesh [ k 12 4; k 12 4 ]), true);
      ("west-first-mesh", Turn_model.west_first (Builders.mesh [ k 10 4; k 10 4 ]), true);
      ("negative-first-mesh", Turn_model.negative_first (Builders.mesh [ k 10 4; k 10 4 ]), true);
      ( "dateline-torus",
        Dimension_order.torus ~datelines:true (Builders.torus ~vcs:2 [ k 8 4; k 8 4 ]),
        true );
      ("ecube-torus", Dimension_order.torus (Builders.torus [ k 6 4; k 6 4 ]), false);
      ("ecube-cube", Dimension_order.hypercube (Builders.hypercube (k 7 3)), true);
    ]
  in
  let synth_nets =
    [
      ("mesh", (Builders.mesh [ k 12 4; k 12 4 ]).Builders.topo);
      ("torus", (Builders.torus [ k 8 4; k 8 4 ]).Builders.topo);
    ]
  in
  let tasks = List.map (fun a -> `Algorithm a) algorithms @ List.map (fun s -> `Synth s) synth_nets in
  let sums = Hashtbl.create 16 in
  let add key v = Hashtbl.replace sums key (v +. Option.value ~default:0. (Hashtbl.find_opt sums key)) in
  let traced_layers name rt =
    let props, tp = time (fun () -> Properties.summary rt) in
    let cdg, tb = time (fun () -> Cdg.build rt) in
    let cycles, tc = time (fun () -> Cdg.elementary_cycles ~max_cycles:100 cdg) in
    let holds p = match List.assoc_opt p props with Some v -> Properties.is_holds v | None -> false in
    let minimal = holds "minimal" and suffix_closed = holds "suffix-closed" in
    let _, tk =
      time (fun () ->
          List.iter (fun c -> ignore (Cycle_analysis.classify ~minimal ~suffix_closed cdg c)) cycles)
    in
    add "properties.summary_s" tp;
    add "cdg.build_s" tb;
    add "cdg.cycles_s" tc;
    add "cycle_analysis.classify_s" tk;
    add "cdg.edges" (float_of_int (Cdg.num_edges cdg));
    add "cdg.cycles" (float_of_int (List.length cycles));
    if name = "xy-mesh" then begin
      layer "properties.summary_s.xy-mesh" tp;
      layer "cdg.build_s.xy-mesh" tb
    end
  in
  fun () ->
    let wall = ref 0. in
    List.iter
      (function
        | `Algorithm (name, rt, expect_df) ->
          let report, tv = time (fun () -> Verify.analyze rt) in
          let diags, tl =
            time (fun () ->
                Lint.algorithm ~declared_minimal:true ~expect_deadlock_free:expect_df rt)
          in
          wall := !wall +. tv +. tl;
          add "verify.analyze_s" tv;
          add "lint.algorithm_s" tl;
          check ("conclusion:" ^ name) (conclusion_string report);
          check ("lint-errors:" ^ name) (string_of_int (List.length (Diagnostic.errors diags)));
          if not o.smoke then begin
            check ("dependencies:" ^ name) (string_of_int report.Verify.num_dependencies);
            check ("cycles:" ^ name) (string_of_int (List.length report.Verify.cycles))
          end;
          if o.trace then traced_layers name rt
        | `Synth (name, topo) ->
          let res, ts = time (fun () -> Synth.synthesize topo) in
          wall := !wall +. ts;
          add "synth.synthesize_s" ts;
          check ("synth:" ^ name) (match res with Ok _ -> "ok" | Error _ -> "impossible"))
      tasks;
    Hashtbl.iter layer sums;
    (match (Hashtbl.find_opt sums "properties.summary_s", Hashtbl.find_opt sums "cdg.build_s") with
    | Some p, Some b ->
      layer "analysis.recompute_ratio"
        ((Hashtbl.find sums "verify.analyze_s" +. Hashtbl.find sums "lint.algorithm_s") /. (p +. b))
    | _ -> ());
    !wall

(* ---- probes: fixed inputs for the kernel and the Explorer sweep ---- *)

(* The Figure-1 and Figure-3(c) intent templates, one injection offset each,
   and the Explorer space over them: every length combination x injection
   order, gap 1 (so each order is a distinct schedule), one-flit buffers,
   FIFO tie-breaks. *)
let probe_spaces o =
  let extra = if o.smoke then Some [ 0 ] else None in
  List.map
    (fun net ->
      let templates =
        List.map (Explorer.intent_template ?extra ~offsets:[ 0 ] net) net.Paper_nets.intents
      in
      ( Cd_algorithm.of_net net,
        { (Explorer.default_space templates) with
          gaps = [ 1 ]; buffers = [ 1 ]; priorities = Explorer.Fifo_only } ))
    [ Paper_nets.figure1 (); Paper_nets.figure3 `C ]

(* Exactly the schedules that space makes the Explorer run: messages listed
   in template order, the j-th message of the injection order injected at
   cycle j. *)
let replay_list (rt, (sp : Explorer.space)) =
  let tpls = Array.of_list sp.messages in
  let n = Array.length tpls in
  let rec combos i =
    if i = n then [ [] ]
    else List.concat_map (fun len -> List.map (fun tl -> len :: tl) (combos (i + 1))) tpls.(i).t_lengths
  in
  let rec perms = function
    | [] -> [ [] ]
    | l -> List.concat_map (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l))) l
  in
  List.concat_map
    (fun order ->
      let at = Array.make n 0 in
      List.iteri (fun j mi -> at.(mi) <- j) order;
      List.map
        (fun lens ->
          ( rt,
            List.mapi
              (fun mi length ->
                let t = tpls.(mi) in
                Schedule.message ~length ~at:at.(mi) t.t_label t.t_src t.t_dst)
              lens ))
        (combos 0))
    (perms (List.init n Fun.id))

let probes o =
  let spaces = probe_spaces o in
  let replay = List.concat_map replay_list spaces in
  let n = float_of_int (List.length replay) in
  let config = { Engine.default_config with max_cycles = 10_000 } in
  let setup_config = { config with max_cycles = 1 } in
  let replay_with f () = List.iter (fun (rt, s) -> ignore (f rt s)) replay in
  let verdicts = Hashtbl.create 4 in
  let sweep domains () =
    List.iteri
      (fun i (rt, sp) ->
        let v =
          match Explorer.explore ~stop_at_first:false ~domains rt sp with
          | Explorer.No_deadlock { runs } -> ("no-deadlock", runs)
          | Explorer.Deadlock_found { runs; _ } -> ("deadlock", runs)
        in
        Hashtbl.replace verdicts (i, domains = 1) v)
      spaces
  in
  fun () ->
    let minor0 = Gc.minor_words () in
    replay_with (fun rt s -> Engine.run ~config rt s) ();
    layer "engine.minor_words_per_short_run" ((Gc.minor_words () -. minor0) /. n);
    (* five rounds, each timing every probe once, so that the host's speed
       drift reaches all probes alike; every number is a median over rounds *)
    let rounds =
      List.init 5 (fun _ ->
          let t f = snd (time f) in
          let short = t (replay_with (fun rt s -> Engine.run ~config rt s)) in
          let setup = t (replay_with (fun rt s -> Engine.run ~config:setup_config rt s)) in
          let validate = t (replay_with Schedule.validate_paths) in
          let d1 = t (sweep 1) in
          let dn = t (sweep (Wr_pool.default_domains ())) in
          (short, setup, validate, d1, dn))
    in
    let median f = List.nth (List.sort compare (List.map f rounds)) 2 in
    let per_run f = median f /. n *. 1e6 in
    layer "engine.short_run_us" (per_run (fun (short, _, _, _, _) -> short));
    layer "engine.setup_us" (per_run (fun (_, setup, _, _, _) -> setup));
    layer "schedule.validate_us" (per_run (fun (_, _, validate, _, _) -> validate));
    layer "explorer.wall_s.d1" (median (fun (_, _, _, d1, _) -> d1));
    layer "explorer.wall_s.dN" (median (fun (_, _, _, _, dn) -> dn));
    layer "wr_pool.speedup" (median (fun (_, _, _, d1, dn) -> d1 /. dn));
    layer "explorer.us_per_run" (per_run (fun (_, _, _, d1, _) -> d1));
    layer "explorer.overhead_us_per_run" (per_run (fun (short, _, _, d1, _) -> d1 -. short));
    List.iteri
      (fun i _ ->
        List.iter
          (fun (one, tag) ->
            let verdict, runs = Hashtbl.find verdicts (i, one) in
            check (Printf.sprintf "explorer:%d:%s" i tag) verdict;
            if not o.smoke then check (Printf.sprintf "explorer-runs:%d:%s" i tag) (string_of_int runs))
          [ (true, "d1"); (false, "dN") ])
      spaces;
    List.fold_left (fun acc (a, b, c, d, e) -> acc +. a +. b +. c +. d +. e) 0. rounds

(* ---- command line ---- *)

let workloads =
  [
    ("campaign", campaign);
    ("mesh-sat", mesh_sat);
    ("torus-recover", torus_recover);
    ("certify-large", certify_large);
  ]

let usage () =
  prerr_endline
    "usage: wormbench.exe (pass WORKLOAD | probes) --seed N --domains D [--trace] [--smoke]";
  exit 2

let () =
  let seed = ref None and domains = ref None and trace = ref false and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--domains" :: v :: rest ->
      domains := int_of_string_opt v;
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | _ -> usage ()
  in
  let what, rest =
    match List.tl (Array.to_list Sys.argv) with
    | "pass" :: w :: rest -> (List.assoc_opt w workloads, rest)
    | "probes" :: rest -> (Some probes, rest)
    | _ -> usage ()
  in
  parse rest;
  match (what, !seed, !domains) with
  | Some setup, Some seed, Some d when d >= 1 ->
    Wr_pool.set_default_domains d;
    let run = setup { seed; trace = !trace; smoke = !smoke } in
    print_endline "ready";
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let wall = run () in
    let minor_words = Gc.minor_words () -. minor0 in
    let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
    print_report ~wall ~minor_words ~major_collections
  | _ -> usage ()
