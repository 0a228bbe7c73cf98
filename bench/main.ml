(* Bechamel benchmarks: one test per reproduced artifact family, so the cost
   of every machine in the pipeline is tracked.

   - cdg/*        building dependency graphs and enumerating cycles
                  (the static machinery behind Figures 1-3)
   - classify/*   the Theorem-2..5 classifiers
   - sim/*        the flit-level engine on substrate workloads (EXP-S1/S2)
   - search/*     the adversarial schedule searches (EXP-F1, EXP-T4, EXP-T5)
   - sweep/*      the same searches through the Wr_pool parallel sweep,
                  sequential vs parallel
   - family/*     the Section-6 minimum-delay probe (EXP-G)

   Run with: dune exec bench/main.exe
   Options:
     --quick               smoke subset with a small measurement quota (CI)
     --json                also write BENCH_<date>.json with ns/run per case
                           plus per-case work counters (one extra execution
                           of each case with the stats plane armed: engine
                           runs and cancellations, stats runs, cycles,
                           deliveries, blocked cycles, latency sum) and
                           per-case GC allocation deltas (minor/major words
                           over one plain execution)
     --campaign-json FILE  splice a wormhole-campaign/1 JSON (from
                           run_experiments --json) into the bench JSON;
                           repeatable *)

module Sim_measure = Measure (* keep wr_workload's Measure reachable under open Bechamel *)

open Bechamel
open Toolkit

(* ---- prebuilt inputs (construction cost is not what we measure) ---- *)

let mesh8 = Builders.mesh [ 8; 8 ]
let mesh8_rt = Dimension_order.mesh mesh8
let torus5 = Builders.torus [ 5; 5 ]
let torus5_rt = Dimension_order.torus torus5
let fig1 = Paper_nets.figure1 ()
let fig1_rt = Cd_algorithm.of_net fig1
let fig1_cdg = Cdg.build fig1_rt
let fig2 = Paper_nets.figure2 ()
let fig2_rt = Cd_algorithm.of_net fig2
let fig3c = Paper_nets.figure3 `C
let fig3c_rt = Cd_algorithm.of_net fig3c
let fig3c_cdg = Cdg.build fig3c_rt

let mesh_schedule =
  let rng = Rng.create 11 in
  let pattern = Traffic.uniform rng mesh8 in
  Traffic.bernoulli_schedule rng pattern ~coords:mesh8 ~rate:0.02 ~length:4 ~horizon:300

let tornado_schedule =
  Traffic.permutation_schedule (Traffic.tornado torus5) ~coords:torus5 ~length:8

(* Trimmed Figure-1 search: injection orders under the order-following
   adversary -- a deterministic, meaningful slice of EXP-F1. *)
let fig1_quick_space =
  let templates = List.map (fun i -> Explorer.intent_template ~extra:[ -1 ] fig1 i) fig1.intents in
  {
    (Explorer.default_space templates) with
    gaps = [ 0 ];
    buffers = [ 1 ];
    priorities = Explorer.Follow_order;
  }

let fig2_space =
  let templates = List.map (fun i -> Explorer.intent_template fig2 i) fig2.intents in
  Explorer.default_space templates

(* Each case keeps its raw thunk next to the bechamel test, so --json can
   re-run it exactly once with stats armed and report the work counters
   (runs, cycles, deliveries...) per case. *)
type case = { c_name : string; c_test : Test.t; c_run : unit -> unit }

let case name f =
  { c_name = name; c_test = Test.make ~name (Staged.stage f); c_run = (fun () -> ignore (f ())) }

let entries =
  [
    case "cdg/build-mesh8x8" (fun () -> Cdg.build mesh8_rt);
    case "cdg/build-figure1" (fun () -> Cdg.build fig1_rt);
    case "cdg/cycles-figure1" (fun () -> Cdg.elementary_cycles fig1_cdg);
    case "cdg/cycles-torus5x5"
      (let cdg = Cdg.build torus5_rt in
       fun () -> Cdg.elementary_cycles cdg);
    case "classify/figure1-cycle"
      (let cycle = List.hd (Cdg.elementary_cycles fig1_cdg) in
       fun () -> Cycle_analysis.classify fig1_cdg cycle);
    case "classify/theorem5-figure3c"
      (let cycle = List.hd (Cdg.elementary_cycles fig3c_cdg) in
       fun () -> Cycle_analysis.classify fig3c_cdg cycle);
    case "properties/summary-mesh8x8" (fun () -> Properties.summary mesh8_rt);
    case "sim/mesh8x8-uniform-300c" (fun () -> Sim_measure.run mesh8_rt mesh_schedule);
    case "sim/torus5x5-tornado-deadlock" (fun () -> Engine.run torus5_rt tornado_schedule);
    (* the raw engine with no sink and no sanitizer: the hot path
       (precomputed hold arrays, indexed wait_since, stamped request
       scratch) is exactly what this measures *)
    case "sim/engine-hotpath" (fun () -> Engine.run mesh8_rt mesh_schedule);
    (* the same hot-path workload under the coarser switching disciplines:
       the gap against engine-hotpath prices cut-through's whole-packet
       buffer provisioning and store-and-forward's buffered-packet gating
       (SAF needs whole-packet buffers -- the schedule's worms are 4 flits) *)
    case "sim/vct-hotpath"
      (let config = { Engine.default_config with discipline = Engine.Virtual_cut_through } in
       fun () -> Engine.run ~config mesh8_rt mesh_schedule);
    case "sim/saf-hotpath"
      (let config =
         { Engine.default_config with discipline = Engine.Store_and_forward; buffer_capacity = 4 }
       in
       fun () -> Engine.run ~config mesh8_rt mesh_schedule);
    (* the hot-path workload with a persistent stats accumulator threaded
       through every run: the gap against sim/mesh8x8-uniform-300c is the
       price of the per-cycle counter scans (owned/busy/wait/HoL walks) *)
    case "sim/stats-overhead"
      (let st = Obs_stats.create ~nchan:(Topology.num_channels mesh8.Builders.topo) in
       fun () -> Engine.run ~stats:st mesh8_rt mesh_schedule);
    (* the hot-path workload with online deadlock detection armed and no
       event sink: the detector reads the kernel's own wait-for columns,
       so the gap against engine-hotpath is the price of its per-cycle
       scan of the visit list for waiters whose quiet age reaches the
       bound *)
    case "sim/detect-overhead"
      (let config =
         {
           Engine.default_config with
           recovery =
             Some { Engine.default_recovery with trigger = Engine.Detect Obs_detect.default_config };
         }
       in
       fun () -> Engine.run ~config mesh8_rt mesh_schedule);
    (* same workload through the kernel's adaptive mode with a singleton
       option function: the gap between this and engine-hotpath is the
       price of option lists + first-free claims over seniority awards *)
    case "sim/adaptive-hotpath"
      (let ad = Adaptive.of_oblivious mesh8_rt in
       fun () -> Engine.run_adaptive ad mesh_schedule);
    case "search/figure1-order-sweep" (fun () -> Explorer.explore fig1_rt fig1_quick_space);
    case "search/figure2-witness" (fun () -> Explorer.explore fig2_rt fig2_space);
    (* the same sweep through the Wr_pool, pinned sequential vs parallel;
       with one domain the two are the identical code path, so any gap on a
       multicore host is the pool's win (or overhead) *)
    case "sweep/figure2-seq" (fun () -> Explorer.explore ~domains:1 fig2_rt fig2_space);
    case "sweep/figure2-parallel"
      (let d = Wr_pool.default_domains () in
       fun () -> Explorer.explore ~domains:d fig2_rt fig2_space);
    case "family/min-delay-p1"
      (let net = Paper_nets.family 1 in
       fun () -> Min_delay.search ~max_h:2 net);
    case "classify/message-flow-figure1" (fun () -> Message_flow.analyze fig1_rt);
    case "classify/duato-mesh4x4"
      (let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ] in
       let ad = Adaptive.duato_mesh mesh2 in
       let escape = Adaptive.escape_of_duato_mesh mesh2 in
       fun () -> Duato.check ad ~escape);
    case "sim/adaptive-duato-stress"
      (let mesh2 = Builders.mesh ~vcs:2 [ 4; 4 ] in
       let ad = Adaptive.duato_mesh mesh2 in
       let rng = Rng.create 13 in
       let pattern = Traffic.uniform rng mesh2 in
       let sched =
         Traffic.bernoulli_schedule rng pattern ~coords:mesh2 ~rate:0.05 ~length:4 ~horizon:150
       in
       fun () -> Engine.run_adaptive ad sched);
    case "search/model-check-figure1"
      (let net = Paper_nets.figure1 () in
       fun () -> Model_checker.check_net ~extra:[ 0 ] net);
    (* ablation: the arbitration-adversary dimension of the search *)
    case "search/figure2-fifo-only"
      (let templates = List.map (fun i -> Explorer.intent_template fig2 i) fig2.intents in
       let sp = { (Explorer.default_space templates) with priorities = Explorer.Fifo_only } in
       fun () -> Explorer.explore fig2_rt sp);
    (* the PR-7 synthesis pipeline: full synthesize (check + routing +
       self-audit) on the big mesh, and the bare existence checker on the
       torus, whose wrap channels make the valley heuristics work hardest *)
    case "analysis/synth-mesh8x8" (fun () -> Synth.synthesize mesh8.Builders.topo);
    case "analysis/check-torus5x5" (fun () -> Synth.check torus5.Builders.topo);
  ]

(* fast cases that still cover the PR-3 surfaces: CDG machinery, the engine
   hot path, and the pooled sweep both sequential and parallel *)
let smoke =
  [
    "cdg/build-figure1";
    "cdg/cycles-figure1";
    "sim/engine-hotpath";
    "sim/vct-hotpath";
    "sim/saf-hotpath";
    "sim/detect-overhead";
    "sim/stats-overhead";
    "sim/adaptive-hotpath";
    "sim/mesh8x8-uniform-300c";
    "sim/torus5x5-tornado-deadlock";
    "sweep/figure2-seq";
    "sweep/figure2-parallel";
  ]

let chosen_cases ~quick =
  if quick then List.filter (fun c -> List.mem c.c_name smoke) entries else entries

(* One counted execution of a case: arm the stats plane around it and keep
   the non-zero deltas of the engine's run counters and of the armed stats
   totals.  Parallel sweeps make some of these schedule-dependent (both
   include speculative runs a sweep later cancelled) -- like the timings,
   they describe this machine's execution, not a canonical quantity. *)
let counters_of c =
  let totals () =
    ("engine_runs", Engine.run_count ())
    :: ("engine_cancelled", Engine.cancelled_count ())
    :: List.map (fun (k, v) -> ("stats_" ^ k, v)) (Obs_stats.armed_totals ())
  in
  let before = totals () in
  Obs_stats.arm ();
  Fun.protect ~finally:Obs_stats.disarm c.c_run;
  List.filter_map
    (fun ((k, v), (_, v0)) -> if v = v0 then None else Some (k, v - v0))
    (List.combine (totals ()) before)

(* One warmed execution of a case bracketed by GC counters: the per-case
   allocation pressure (words, not bytes) that --json reports alongside the
   timings.  The unmeasured first run charges every lazily built cache
   (routing paths, pool state) to no case, so the measured second run is
   the steady per-run cost -- identical whatever ran before, which is what
   lets bench_gate.py hard-gate these numbers across quick and full
   configurations.  Exact for the simulation cases: the kernel's steady
   cycle is allocation-free, so the delta is per-run setup that does not
   jitter the way timings do. *)
let alloc_of c =
  c.c_run ();
  (* Gc.counters reads the precise allocation totals; quick_stat's copies
     only refresh at collection boundaries and under-report short cases *)
  let minor0, _, major0 = Gc.counters () in
  c.c_run ();
  let minor1, _, major1 = Gc.counters () in
  (minor1 -. minor0, major1 -. major0)

let benchmark ~quick =
  let chosen = chosen_cases ~quick in
  let tests = Test.make_grouped ~name:"wormhole" (List.map (fun c -> c.c_test) chosen) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.1) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    line
  with _ -> "unknown"

let today () =
  let tm = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let write_json ~quick ~campaigns ~counters ~allocs rows =
  let date = today () in
  let path = Printf.sprintf "BENCH_%s.json" date in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"wormhole-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"date\": %S,\n" date);
  Buffer.add_string buf (Printf.sprintf "  \"commit\": %S,\n" (git_commit ()));
  Buffer.add_string buf (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" (Wr_pool.default_domains ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"host_recommended_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf "  \"benchmarks\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %s%s\n" name
           (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
           (if i = n - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"alloc\": {\n";
  let na = List.length allocs in
  List.iteri
    (fun i (name, (minor, major)) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: {\"minor_words\": %.0f, \"major_words\": %.0f}%s\n" name
           minor major
           (if i = na - 1 then "" else ",")))
    allocs;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"counters\": {\n";
  let ncnt = List.length counters in
  List.iteri
    (fun i (name, kvs) ->
      Buffer.add_string buf (Printf.sprintf "    %S: {" name);
      List.iteri
        (fun j (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%S: %d" (if j = 0 then "" else ", ") k v))
        kvs;
      Buffer.add_string buf (Printf.sprintf "}%s\n" (if i = ncnt - 1 then "" else ",")))
    counters;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"campaigns\": [\n";
  let nc = List.length campaigns in
  List.iteri
    (fun i body ->
      (* splice the wormhole-campaign/1 document verbatim, reindented *)
      String.split_on_char '\n' (String.trim body)
      |> List.iter (fun line -> Buffer.add_string buf (Printf.sprintf "    %s\n" line));
      if i <> nc - 1 then Buffer.add_string buf "    ,\n")
    campaigns;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let quick = ref false and json = ref false and campaigns = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--campaign-json" :: path :: rest ->
      campaigns := read_file path :: !campaigns;
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "usage: bench [--quick] [--json] [--campaign-json FILE]... (unknown arg %s)\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let results = benchmark ~quick:!quick in
  let table = Table.create ~aligns:[ Table.Left; Table.Right ] [ "benchmark"; "time/run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun _metric tbl ->
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | _ -> nan
          in
          rows := (name, est) :: !rows)
        tbl)
    results;
  let rows = List.sort compare !rows in
  let human ns =
    if Float.is_nan ns then "n/a"
    else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  List.iter (fun (name, est) -> Table.add_row table [ name; human est ]) rows;
  Table.print table;
  if !json then begin
    (* one extra stats-armed execution per case for the work counters, and
       one plain execution for the allocation deltas (arming allocates a
       per-run accumulator, so the two cannot share a run) *)
    let cases = chosen_cases ~quick:!quick in
    let counters = List.map (fun c -> (c.c_name, counters_of c)) cases in
    let allocs = List.map (fun c -> (c.c_name, alloc_of c)) cases in
    let path =
      write_json ~quick:!quick ~campaigns:(List.rev !campaigns) ~counters ~allocs rows
    in
    Printf.printf "\nbench JSON written to %s\n" path
  end
