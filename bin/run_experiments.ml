(* Regenerate every paper artifact (EXPERIMENTS.md is the captured output).

   Usage: experiments [EXPERIMENT...] [--quick] [--max-p N] [--domains N]
                      [--json FILE]

   With no arguments, runs the full suite.  The claim output is byte-
   identical for any --domains value; the timing table at the end is the
   only wall-clock-dependent section. *)

open Cmdliner

(* what an experiment may read from the command line *)
type opts = { quick : bool; max_p : int option; detect : bool }

(* every experiment in campaign order: its command-line name and its run *)
let experiments =
  [
    ("exp-f1", fun o -> Experiments.exp_f1 ~quick:o.quick);
    ("exp-t2", fun o -> Experiments.exp_t2 ~quick:o.quick);
    ("exp-corollaries", fun o -> Experiments.exp_corollaries ~quick:o.quick);
    ("exp-t3", fun o -> Experiments.exp_t3 ~quick:o.quick);
    ("exp-t4", fun o -> Experiments.exp_t4 ~quick:o.quick);
    ("exp-t5", fun o -> Experiments.exp_t5 ~quick:o.quick);
    ("exp-g", fun o -> Experiments.exp_g ~quick:o.quick ?max_p:o.max_p);
    ("exp-s1", fun o -> Experiments.exp_s1 ~quick:o.quick);
    ("exp-s2", fun o -> Experiments.exp_s2 ~quick:o.quick);
    ("exp-mfm", fun o -> Experiments.exp_mfm ~quick:o.quick);
    ("exp-a", fun o -> Experiments.exp_a ~quick:o.quick);
    ("exp-sw", fun o -> Experiments.exp_sw ~quick:o.quick);
    ("exp-sw1", fun o -> Experiments.exp_sw1 ~quick:o.quick);
    ("exp-mc", fun o -> Experiments.exp_mc ~quick:o.quick);
    ("exp-fault", fun o -> Experiments.exp_fault ~quick:o.quick ~detect:o.detect);
    ("exp-detect", fun o -> Experiments.exp_detect ~quick:o.quick);
    ("exp-lint", fun o -> Experiments.exp_lint ~quick:o.quick);
    ("exp-synth", fun o -> Experiments.exp_synth ~quick:o.quick);
  ]

let experiment_names = String.concat ", " (List.map fst experiments)

type timing = {
  tm_name : string;
  tm_wall : float;  (* seconds *)
  tm_runs : int;  (* engine runs started by this experiment *)
  tm_cancelled : int;
      (* of those, runs a parallel sweep started speculatively and then
         discarded; tm_runs - tm_cancelled is the canonical tally, byte-
         identical at any --domains *)
}

let runs_per_sec tm = if tm.tm_wall > 0. then float_of_int tm.tm_runs /. tm.tm_wall else 0.

let timing_table timings =
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "experiment"; "wall (s)"; "engine runs"; "cancelled"; "runs/sec" ]
  in
  List.iter
    (fun tm ->
      Table.add_row table
        [
          tm.tm_name;
          Printf.sprintf "%.2f" tm.tm_wall;
          string_of_int tm.tm_runs;
          string_of_int tm.tm_cancelled;
          Printf.sprintf "%.0f" (runs_per_sec tm);
        ])
    timings;
  let total_wall = List.fold_left (fun acc tm -> acc +. tm.tm_wall) 0. timings in
  let total_runs = List.fold_left (fun acc tm -> acc + tm.tm_runs) 0 timings in
  let total_cancelled = List.fold_left (fun acc tm -> acc + tm.tm_cancelled) 0 timings in
  Table.add_row table
    [
      "total";
      Printf.sprintf "%.2f" total_wall;
      string_of_int total_runs;
      string_of_int total_cancelled;
      Printf.sprintf "%.0f"
        (if total_wall > 0. then float_of_int total_runs /. total_wall else 0.);
    ];
  Table.render table

let write_json path ~quick ~domains ~claims ~failed timings =
  let buf = Buffer.create 1024 in
  let total_wall = List.fold_left (fun acc tm -> acc +. tm.tm_wall) 0. timings in
  let total_runs = List.fold_left (fun acc tm -> acc + tm.tm_runs) 0 timings in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"wormhole-campaign/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  \"claims\": %d,\n" claims);
  Buffer.add_string buf (Printf.sprintf "  \"failed\": %d,\n" failed);
  let total_cancelled = List.fold_left (fun acc tm -> acc + tm.tm_cancelled) 0 timings in
  Buffer.add_string buf (Printf.sprintf "  \"wall_s\": %.3f,\n" total_wall);
  Buffer.add_string buf (Printf.sprintf "  \"engine_runs\": %d,\n" total_runs);
  Buffer.add_string buf (Printf.sprintf "  \"engine_runs_cancelled\": %d,\n" total_cancelled);
  Buffer.add_string buf "  \"experiments\": [\n";
  List.iteri
    (fun i tm ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"wall_s\": %.3f, \"runs\": %d, \"cancelled\": %d, \
            \"runs_per_s\": %.0f}%s\n"
           tm.tm_name tm.tm_wall tm.tm_runs tm.tm_cancelled (runs_per_sec tm)
           (if i = List.length timings - 1 then "" else ",")))
    timings;
  Buffer.add_string buf "  ]\n}\n";
  Out_file.write ~cli:"run_experiments" path (Buffer.contents buf)

(* The campaign metrics file is built from canonically-reduced quantities
   only (claim verdicts, canonical run tallies), never from event-stream
   folds: interleaved event streams from parallel sweeps are schedule-
   dependent, so folding them would break the byte-determinism contract
   (DESIGN.md §11).  Everything written here is identical at any --domains. *)
let write_metrics path ~quick ~rows timings =
  let family kind name help samples =
    { Obs_metrics.f_name = name; f_kind = kind; f_help = help; f_samples = samples }
  in
  let sample labels value = { Obs_metrics.s_suffix = ""; s_labels = labels; s_value = value } in
  let canonical tm = tm.tm_runs - tm.tm_cancelled in
  let runs_of name =
    List.fold_left (fun acc tm -> if tm.tm_name = name then acc + canonical tm else acc) 0 timings
  in
  let ok = List.length (List.filter (fun r -> r.Experiments.x_ok) rows) in
  (* families in name order; one series per experiment name, summed over
     repeats, in name order *)
  Out_file.write ~cli:"run_experiments" path
    (Obs_metrics.to_prometheus
       [
         family Obs_metrics.Counter "wormhole_campaign_claims_total" "Campaign claims by verdict"
           [
             sample [ ("status", "failed") ] (List.length rows - ok);
             sample [ ("status", "ok") ] ok;
           ];
         family Obs_metrics.Counter "wormhole_campaign_experiment_runs_total"
           "Canonical engine runs per experiment (speculative cancelled runs excluded)"
           (List.map
              (fun name -> sample [ ("experiment", name) ] (runs_of name))
              (List.sort_uniq compare (List.map (fun tm -> tm.tm_name) timings)));
         family Obs_metrics.Gauge "wormhole_campaign_quick" "1 when the campaign ran with --quick"
           [ sample [] (if quick then 1 else 0) ];
         family Obs_metrics.Counter "wormhole_campaign_runs_total"
           "Canonical engine runs across the campaign"
           [ sample [] (List.fold_left (fun acc tm -> acc + canonical tm) 0 timings) ];
       ])

let main names quick max_p sanitize detect discipline domains json metrics verdicts latency =
  Out_file.set_domains domains;
  (match max_p with
  | Some p when p < 2 ->
    Printf.eprintf
      "--max-p must be at least 2 (got %d): exp-g's growth claim compares family members\n" p;
    exit 2
  | Some _ | None -> ());
  (match discipline with
  | None -> ()
  | Some spec -> (
    match Engine.discipline_of_string spec with
    | Some d -> Engine.set_discipline_override (Some d)
    | None ->
      Printf.eprintf
        "unknown --discipline %s (wormhole/wh, virtual-cut-through/vct, store-and-forward/saf)\n"
        spec;
      exit 2));
  (* the output files are written after the whole campaign: refuse a
     missing directory before the first experiment runs *)
  List.iter
    (Option.iter (Out_file.check_dir ~cli:"run_experiments"))
    [ json; metrics; verdicts ];
  let ppf = Format.std_formatter in
  (* --latency arms the counters-first stats plane for the whole campaign:
     every engine run gets a private accumulator, proving stats-on changes
     no claim verdict (CI diffs the --verdicts files armed vs not) *)
  if latency then Obs_stats.arm ();
  let sanitizer =
    if sanitize then begin
      let s = Sanitizer.create () in
      Sanitizer.install s;
      Some s
    end
    else None
  in
  let selected =
    match names with
    | [] -> experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some run -> (n, run)
          | None ->
            Printf.eprintf "unknown experiment %s (known: %s)\n" n experiment_names;
            exit 2)
        names
  in
  let opts = { quick; max_p; detect } in
  let timings = ref [] in
  let rows =
    List.concat_map
      (fun (name, run) ->
        let t0 = Unix.gettimeofday () in
        let runs0 = Engine.run_count () in
        let cancelled0 = Engine.cancelled_count () in
        let rows = run opts ppf in
        Format.pp_print_flush ppf ();
        let tm =
          {
            tm_name = name;
            tm_wall = Unix.gettimeofday () -. t0;
            tm_runs = Engine.run_count () - runs0;
            tm_cancelled = Engine.cancelled_count () - cancelled0;
          }
        in
        timings := tm :: !timings;
        rows)
      selected
  in
  let timings = List.rev !timings in
  Format.fprintf ppf "@\n=== Summary ===@\n%s@?" (Experiments.summary_table rows);
  (match verdicts with
  | None -> ()
  | Some path ->
    (* one "id ok|FAIL" line per claim: a canonical, domain-independent
       reduction CI can diff across configurations (e.g. --detect on/off) *)
    Out_file.write ~cli:"run_experiments" path
      (String.concat ""
         (List.map
            (fun r ->
              Printf.sprintf "%s %s\n" r.Experiments.x_id
                (if r.Experiments.x_ok then "ok" else "FAIL"))
            rows));
    Format.fprintf ppf "@\nclaim verdicts written to %s@\n" path);
  let failed = List.filter (fun r -> not r.Experiments.x_ok) rows in
  if failed <> [] then begin
    Format.fprintf ppf "@\n%d claim(s) FAILED@." (List.length failed);
    exit 1
  end;
  (match sanitizer with
  | None -> ()
  | Some s ->
    let runs = Engine.run_count () and cancelled = Engine.cancelled_count () in
    Format.fprintf ppf "@\nsanitizer: %d runs (%d canonical, %d cancelled), %d cycles checked@."
      runs (runs - cancelled) cancelled (Sanitizer.cycles_checked s);
    if not (Sanitizer.ok s) then begin
      Format.fprintf ppf "%d invariant violation(s):@." (Sanitizer.violation_count s);
      List.iter
        (fun d -> Format.fprintf ppf "  %a@." (Diagnostic.pp ()) d)
        (Sanitizer.diagnostics s);
      exit 1
    end);
  Format.fprintf ppf "@\nall %d claims reproduced@." (List.length rows);
  (match metrics with
  | None -> ()
  | Some path ->
    write_metrics path ~quick ~rows timings;
    Format.fprintf ppf "@\ncampaign metrics written to %s@." path);
  (* the latency section runs a fixed workload set with explicit per-run
     accumulators merged in task-index order: byte-identical at any
     --domains, so it prints before the wall-clock-dependent sections *)
  if latency then begin
    Experiments.latency_report ~quick ppf;
    Format.pp_print_flush ppf ()
  end;
  (* wall-clock-dependent section last, so everything above stays byte-
     identical across runs and domain counts *)
  Format.fprintf ppf "@\n=== Timing (domains=%d) ===@\n%s@?" (Wr_pool.default_domains ())
    (timing_table timings);
  (* armed totals count speculative (later-cancelled) sweep runs too, so
     like the timing table they stay out of the byte-diffed region *)
  if latency then begin
    Obs_stats.disarm ();
    Format.fprintf ppf "@\nstats (armed campaign totals): %s@."
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (Obs_stats.armed_totals ())))
  end;
  match json with
  | None -> ()
  | Some path ->
    write_json path ~quick
      ~domains:(Wr_pool.default_domains ())
      ~claims:(List.length rows) ~failed:(List.length failed) timings;
    Format.fprintf ppf "@\ntiming JSON written to %s@." path

let names_arg =
  let doc = "Experiments to run (default: all).  One of " ^ experiment_names ^ "." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Trim search spaces for a fast pass (seconds instead of minutes)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let max_p_arg =
  let doc = "Largest Section-6 family parameter for exp-g (at least 2)." in
  Arg.(value & opt (some int) None & info [ "max-p" ] ~docv:"N" ~doc)

let sanitize_arg =
  let doc = "Run every simulation under the engine sanitizer (per-cycle invariant \
             checks E101-E106); report violations at the end and exit nonzero on any." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let detect_arg =
  let doc = "Run exp-fault's campaigns with online deadlock detection instead of the plain \
             watchdog (same no-progress backstop; claim verdicts must not change)." in
  Arg.(value & flag & info [ "detect" ] ~doc)

let discipline_arg =
  let doc = "Run every oblivious simulation under this switching discipline (wormhole, \
             virtual-cut-through/vct, store-and-forward/saf) via the process-wide override: \
             a campaign-level what-if that shows which deadlock verdicts flip when the \
             switching changes.  Store-and-forward raises each run's effective buffer \
             capacity to its longest message so wormhole-provisioned campaigns stay \
             runnable.  exp-sw1 (the discipline matrix) pins its own disciplines and \
             ignores the override." in
  Arg.(value & opt (some string) None & info [ "discipline" ] ~docv:"D" ~doc)

let domains_arg =
  let doc = "Domains for the parallel sweeps, at least 1 (default: the WORMHOLE_DOMAINS \
             environment variable, else the machine's recommended domain count).  1 selects \
             the exact sequential path; claim output is byte-identical for every value." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Write per-experiment wall-clock and runs/sec timing to $(docv) as JSON \
             (schema wormhole-campaign/1)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write campaign metrics (claim verdicts, canonical per-experiment engine-run \
             tallies) to $(docv) in Prometheus text format.  Built only from canonically \
             reduced quantities, so the file is byte-identical at any --domains." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let verdicts_arg =
  let doc = "Write one 'claim-id ok|FAIL' line per claim to $(docv): a canonical reduction \
             that is byte-identical at any --domains, for diffing across configurations." in
  Arg.(value & opt (some string) None & info [ "verdicts" ] ~docv:"FILE" ~doc)

let latency_arg =
  let doc = "Arm the counters-first stats plane for the whole campaign (claim verdicts must \
             not change) and append a latency section: p50/p90/p99/max percentiles, peak \
             channel utilization and top head-of-line blocking channels over a fixed \
             deterministic workload set, byte-identical at any --domains." in
  Arg.(value & flag & info [ "latency" ] ~doc)

let cmd =
  let doc = "regenerate the paper's figures and theorem checks" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info
    Term.(
      const main $ names_arg $ quick_arg $ max_p_arg $ sanitize_arg $ detect_arg
      $ discipline_arg $ domains_arg $ json_arg $ metrics_arg $ verdicts_arg $ latency_arg)

let () = exit (Cmd.eval cmd)
