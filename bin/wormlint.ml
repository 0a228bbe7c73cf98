(* Static-analysis CLI over the algorithm registry.

   Examples:
     wormlint                          lint every registered algorithm
     wormlint xy-mesh-4x4 cd-figure1   lint a selection
     wormlint --json                   machine-readable output for CI
     wormlint --faults 'fail:a>b@3' cd-figure1
     wormlint --corpus                 run the seeded-defect corpus
     wormlint --list                   show the registry

   Exit status: 0 clean, 1 when any E-severity diagnostic (or corpus
   failure) is found. *)

open Cmdliner

let list_registry () =
  List.iter
    (fun e ->
      let kind =
        match e.Registry.r_algo with
        | Registry.Oblivious _ -> "oblivious"
        | Registry.Adaptive (_, Some _) -> "adaptive+escape"
        | Registry.Adaptive (_, None) -> "adaptive"
      in
      let flags =
        (if e.Registry.r_declared_minimal then [ "minimal" ] else [])
        @ (if e.Registry.r_expect_deadlock_free then [ "deadlock-free" ] else [ "deadlocks" ])
      in
      Printf.printf "%-26s %-16s %-22s %s\n" e.Registry.r_name kind
        (String.concat "," flags) e.Registry.r_note)
    (Registry.entries ());
  0

let run_corpus json =
  let results = Corpus.check_all () in
  let failed = List.filter (fun (_, r) -> r <> Ok ()) results in
  if json then begin
    let item (name, r) =
      let ok, detail = match r with Ok () -> (true, "") | Error e -> (false, e) in
      Printf.sprintf "{\"entry\":%s,\"ok\":%b,\"detail\":%s}"
        ("\"" ^ Diagnostic.json_escape name ^ "\"")
        ok
        ("\"" ^ Diagnostic.json_escape detail ^ "\"")
    in
    print_endline ("[" ^ String.concat "," (List.map item results) ^ "]")
  end
  else
    List.iter
      (fun (name, r) ->
        match r with
        | Ok () -> Printf.printf "corpus %-28s ok\n" name
        | Error e -> Printf.printf "corpus %-28s FAIL %s\n" name e)
      results;
  if failed = [] then 0 else 1

(* Synthesis mode: run the existence checker + certified synthesis over
   every distinct registry network.  Exit 1 when any E-severity diagnostic
   fires -- the registry deliberately includes the under-provisioned
   unidirectional ring, so a full --synth run exits 1 by design (CI pins
   the exact output instead of the exit code). *)
let run_synth json =
  let results = Synth_cert.run_all () in
  let num_errors =
    List.fold_left
      (fun n t -> n + List.length (Diagnostic.errors t.Synth_cert.sc_diagnostics))
      0 results
  in
  if json then print_endline (Synth_cert.list_to_json results)
  else
    List.iter
      (fun t ->
        let verdict =
          match t.Synth_cert.sc_result with
          | Ok (_, plan) -> "exists via " ^ plan.Synth.p_strategy
          | Error _ -> "impossible"
        in
        Format.printf "%s: %s@." t.Synth_cert.sc_network verdict;
        List.iter
          (fun d ->
            Format.printf "  %a@." (Diagnostic.pp ~topo:t.Synth_cert.sc_topology ()) d)
          t.Synth_cert.sc_diagnostics)
      results;
  if num_errors = 0 then 0 else 1

(* Prometheus text file with the full (algorithm x severity) count matrix:
   every cell is present, zero when clean, so CI thresholds can tell
   "linted clean" (0) from "not linted" (series absent).  A name linted
   twice keeps one series per severity, counting both lints. *)
let write_metrics path results =
  let family name help samples =
    { Obs_metrics.f_name = name; f_kind = Obs_metrics.Counter; f_help = help; f_samples = samples }
  in
  let sample labels value = { Obs_metrics.s_suffix = ""; s_labels = labels; s_value = value } in
  (* in label order *)
  let severities = [ Diagnostic.Error; Diagnostic.Info; Diagnostic.Warning ] in
  let severity s = ("severity", Diagnostic.severity_string s) in
  let count keep s =
    List.fold_left (fun n (e, _, ds) -> if keep e then n + Diagnostic.count s ds else n) 0 results
  in
  let names = List.sort_uniq compare (List.map (fun (e, _, _) -> e.Registry.r_name) results) in
  (* families in name order, series in label order *)
  Out_file.write ~cli:"wormlint" path
    (Obs_metrics.to_prometheus
       [
         family "wormlint_algorithm_diagnostics_total" "Lint diagnostics by algorithm and severity"
           (List.concat_map
              (fun name ->
                List.map
                  (fun s ->
                    sample
                      [ ("algorithm", name); severity s ]
                      (count (fun e -> e.Registry.r_name = name) s))
                  severities)
              names);
         family "wormlint_algorithms_total" "Algorithms linted"
           [ sample [] (List.length results) ];
         family "wormlint_diagnostics_total" "Lint diagnostics by severity"
           (List.map (fun s -> sample [ severity s ] (count (fun _ -> true) s)) severities);
       ])

let lint_entries json fault_spec reroute_name all_flag metrics selection =
  let all = Registry.entries () in
  (if all_flag && selection <> [] then begin
     Printf.eprintf "--all and an explicit selection are mutually exclusive\n";
     exit 2
   end);
  (* resolve the reroute inside the same registry instantiation as the
     entries being linted: Registry.entries builds fresh topologies per
     call, and the E044 topology check is physical identity (exactly what
     the engine checks on its config) *)
  let reroute_rt =
    match reroute_name with
    | None -> None
    | Some n -> (
      match List.find_opt (fun e -> e.Registry.r_name = n) all with
      | Some { Registry.r_algo = Registry.Oblivious rt; _ } -> Some rt
      | Some _ ->
        Printf.eprintf "--reroute must name an oblivious algorithm (adaptive reroutes are \
                        pinned static routes)\n";
        exit 2
      | None ->
        Printf.eprintf "unknown reroute algorithm %s (try --list)\n" n;
        exit 2)
  in
  let chosen =
    match selection with
    | [] -> all
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun e -> e.Registry.r_name = n) all with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown algorithm %s (try --list)\n" n;
            exit 2)
        names
  in
  let lint_one e =
    let topo = Registry.topology e in
    let diags = Registry.lint e in
    let fault_diags =
      match fault_spec with
      | None -> []
      | Some spec -> (
        match Fault.parse topo spec with
        | Ok plan -> Lint.fault_plan topo plan
        | Error msg ->
          [
            Diagnostic.error "E040" (Diagnostic.Algorithm e.Registry.r_name)
              ("fault plan does not parse: " ^ msg);
          ])
    in
    let reroute_diags =
      match reroute_rt with
      | None -> []
      | Some rt' ->
        let adaptive =
          match e.Registry.r_algo with
          | Registry.Adaptive _ -> true
          | Registry.Oblivious _ -> false
        in
        Lint.reroute ~adaptive ~algorithm:e.Registry.r_name topo rt'
    in
    (e, topo, Diagnostic.by_severity (diags @ fault_diags @ reroute_diags))
  in
  (* fan the per-algorithm lints over the pool; Wr_pool.map returns results
     in input order, so diagnostics print in registry-index order for any
     domain count *)
  let results = Wr_pool.map lint_one chosen in
  let num_errors =
    List.fold_left (fun n (_, _, ds) -> n + List.length (Diagnostic.errors ds)) 0 results
  in
  if json then begin
    let item (e, topo, ds) =
      Printf.sprintf "{\"algorithm\":%s,\"diagnostics\":%s}"
        ("\"" ^ Diagnostic.json_escape e.Registry.r_name ^ "\"")
        (Diagnostic.list_to_json ~topo ds)
    in
    print_endline ("[" ^ String.concat "," (List.map item results) ^ "]")
  end
  else
    List.iter
      (fun (e, topo, ds) ->
        Format.printf "%s: %d error(s), %d warning(s), %d info@." e.Registry.r_name
          (Diagnostic.count Diagnostic.Error ds)
          (Diagnostic.count Diagnostic.Warning ds)
          (Diagnostic.count Diagnostic.Info ds);
        List.iter (fun d -> Format.printf "  %a@." (Diagnostic.pp ~topo ()) d) ds)
      results;
  (match metrics with None -> () | Some path -> write_metrics path results);
  if num_errors = 0 then 0 else 1

let main list corpus synth json fault_spec reroute_name all_flag domains metrics selection =
  Out_file.set_domains domains;
  (* the metrics file is written after the lints: refuse a missing
     directory before the first lint runs *)
  Option.iter (Out_file.check_dir ~cli:"wormlint") metrics;
  if list then list_registry ()
  else if corpus then run_corpus json
  else if synth then run_synth json
  else lint_entries json fault_spec reroute_name all_flag metrics selection

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List the registered algorithms and exit.")

let all_flag =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Lint the whole registry (the default when no algorithms are named), fanning the \
              per-algorithm lints over the parallel pool; diagnostics keep registry order.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Domains for the lint fan-out (default: WORMHOLE_DOMAINS, else the machine's \
              recommended domain count).  Output is identical for every value.")

let corpus_flag =
  Arg.(
    value & flag
    & info [ "corpus" ]
        ~doc:"Run the seeded-defect corpus: each entry must raise its expected code exactly \
              once.")

let synth_flag =
  Arg.(
    value & flag
    & info [ "synth" ]
        ~doc:"Run the deadlock-free-routing existence checker and certified synthesis over \
              every distinct registry network: E060 with a machine-checkable witness where \
              no deadlock-free routing exists, I061 with the Verify certificate where one \
              was synthesized, W062 where the synthesized routing leaves channels unused.")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of text.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:"Also lint this fault plan (Fault.parse syntax) against each selected \
              algorithm's topology.")

let reroute_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "reroute" ] ~docv:"ALGORITHM"
        ~doc:"Also lint each selected algorithm's interaction with this registry entry used \
              as a recovery reroute: topology mismatches (E044) and the adaptive \
              route-pinning note (W044).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write diagnostic counts per severity (total and per algorithm) to $(docv) in \
              Prometheus text format, for CI thresholding.  Every (algorithm, severity) \
              series is present, zero-valued when clean.  Lint mode only.")

let selection_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ALGORITHM" ~doc:"Registry entries to lint \
                                                                   (default: all).")

let cmd =
  let doc = "static lints for wormhole routing algorithms and fault plans" in
  Cmd.v
    (Cmd.info "wormlint" ~doc)
    Term.(
      const main $ list_flag $ corpus_flag $ synth_flag $ json_flag $ faults_arg
      $ reroute_arg $ all_flag $ domains_arg $ metrics_arg $ selection_arg)

let () = exit (Cmd.eval' cmd)
