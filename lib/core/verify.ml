type conclusion =
  | Deadlock_free of string
  | Deadlocks of string
  | Unknown of string

let is_deadlock_free = function Deadlock_free _ -> true | Deadlocks _ | Unknown _ -> false

type cycle_report = {
  cr_cycle : Topology.channel list;
  cr_verdict : Cycle_analysis.verdict;
  cr_searched : bool;
  cr_witness : Explorer.witness option;
  cr_search_runs : int;
}

type report = {
  algorithm : string;
  properties : (string * Properties.verdict) list;
  num_channels : int;
  num_dependencies : int;
  acyclic : bool;
  numbering : int array option;
  cycles : cycle_report list;
  conclusion : conclusion;
}

(* Build search templates for one cycle from its static analysis: the
   candidate deadlock population is exactly the cycle's supporting
   messages, with lengths swept around their in-cycle spans and injection
   offsets swept for messages that do not pass through the outside shared
   channel (their start times are unconstrained by its serialization). *)
let templates_for (analysis : Cycle_analysis.analysis) =
  let shared_users =
    List.concat_map (fun sc -> sc.Cycle_analysis.sc_users) analysis.a_outside_shared
  in
  List.map
    (fun (cm : Cycle_analysis.cycle_message) ->
      let s, d = cm.cm_msg in
      let span = max 1 cm.cm_span in
      let lengths =
        List.sort_uniq compare
          (List.map (fun e -> max 1 (span + e)) (Explorer.length_window ~quick:false))
      in
      let offsets = if List.mem cm.cm_msg shared_users then [ 0 ] else [ 0; 2; 4; 6; 8; 10 ] in
      {
        Explorer.t_label = cm.cm_label;
        t_src = s;
        t_dst = d;
        t_lengths = lengths;
        t_holds = [ [] ];
        t_offsets = offsets;
      })
    analysis.a_messages

let search_cycle ~quick rt analysis =
  let templates = templates_for analysis in
  if templates = [] || List.length templates > 6 then None
  else begin
    let base = Explorer.default_space templates in
    let space =
      if quick then { base with buffers = [ 1 ]; priorities = Explorer.Follow_order }
      else { base with buffers = [ 1; 2 ] }
    in
    Some (Explorer.explore rt space)
  end

let analyze ?(use_search = true) ?(quick = false) rt =
  let static = Cycle_analysis.of_routing rt in
  let cdg = static.Cycle_analysis.ra_cdg in
  let numbering = Cdg.numbering cdg in
  let acyclic = Option.is_some numbering in
  let cycle_reports =
    List.map
      (fun ((analysis : Cycle_analysis.analysis), verdict) ->
        let search =
          match verdict with
          | Cycle_analysis.Needs_search _ when use_search -> search_cycle ~quick rt analysis
          | _ -> None
        in
        let cr_witness, cr_search_runs =
          match search with
          | Some (Explorer.Deadlock_found { runs; witness }) -> (Some witness, runs)
          | Some (Explorer.No_deadlock { runs }) -> (None, runs)
          | None -> (None, 0)
        in
        {
          cr_cycle = analysis.a_cycle;
          cr_verdict = verdict;
          cr_searched = Option.is_some search;
          cr_witness;
          cr_search_runs;
        })
      static.ra_cycles
  in
  let conclusion =
    if acyclic then
      Deadlock_free "acyclic channel dependency graph (Dally-Seitz numbering exists)"
    else begin
      let witnessed = List.exists (fun cr -> cr.cr_witness <> None) cycle_reports in
      let theorem_reachable =
        List.exists
          (fun cr ->
            match cr.cr_verdict with
            | Cycle_analysis.Deadlock_reachable _ -> true
            | _ -> false)
          cycle_reports
      in
      if witnessed then Deadlocks "a replayable deadlock witness was found for some cycle"
      else if theorem_reachable then
        Deadlocks "a theorem (2, 3 or 4, or a Theorem-5 condition violation) certifies a \
                   reachable deadlock configuration"
      else begin
        let undecided =
          List.filter
            (fun cr ->
              match (cr.cr_verdict, cr.cr_searched) with
              | Cycle_analysis.Unreachable _, _ -> false
              | _, true -> false (* searched, no witness: bounded-exhaustively safe *)
              | _, false -> true)
            cycle_reports
        in
        if undecided = [] then
          Deadlock_free
            "every CDG cycle is either a theorem-certified false resource cycle or \
             bounded-exhaustively unreachable"
        else
          Unknown
            (Printf.sprintf "%d cycle(s) could not be decided within budget"
               (List.length undecided))
      end
    end
  in
  {
    algorithm = Routing.name rt;
    properties = static.ra_summary;
    num_channels = Topology.num_channels (Routing.topology rt);
    num_dependencies = Cdg.num_edges cdg;
    acyclic;
    numbering;
    cycles = cycle_reports;
    conclusion;
  }

let diagnostics r =
  let conclusion_diag =
    match r.conclusion with
    | Deadlocks why -> Diagnostic.error "E050" (Diagnostic.Algorithm r.algorithm) why
    | Unknown why -> Diagnostic.warning "W052" (Diagnostic.Algorithm r.algorithm) why
    | Deadlock_free why -> Diagnostic.info "I053" (Diagnostic.Algorithm r.algorithm) why
  in
  let cycle_diags =
    List.concat_map
      (fun cr ->
        let verdict = Format.asprintf "%a" Cycle_analysis.pp_verdict cr.cr_verdict in
        match cr.cr_witness with
        | Some w ->
          [
            Diagnostic.error "E051"
              ~context:
                [
                  ("algorithm", r.algorithm);
                  ("verdict", verdict);
                  ("class", Engine.deadlock_class_string w.Explorer.w_info.Engine.d_class);
                  ("runs", string_of_int cr.cr_search_runs);
                  ( "schedule",
                    String.concat ", "
                      (List.map (fun s -> s.Schedule.ms_label) w.Explorer.w_schedule) );
                ]
              (Diagnostic.Cycle cr.cr_cycle)
              "schedule search produced a replayable deadlock witness";
          ]
        | None ->
          if cr.cr_searched then
            [
              Diagnostic.info "I054"
                ~context:
                  [
                    ("algorithm", r.algorithm);
                    ("verdict", verdict);
                    ("runs", string_of_int cr.cr_search_runs);
                  ]
                (Diagnostic.Cycle cr.cr_cycle)
                "bounded-exhaustive search found no reachable deadlock on this cycle";
            ]
          else [])
      r.cycles
  in
  Diagnostic.by_severity (conclusion_diag :: cycle_diags)

let pp_conclusion ppf = function
  | Deadlock_free why -> Format.fprintf ppf "DEADLOCK-FREE (%s)" why
  | Deadlocks why -> Format.fprintf ppf "CAN DEADLOCK (%s)" why
  | Unknown why -> Format.fprintf ppf "UNDECIDED (%s)" why

let pp_report ppf r =
  Format.fprintf ppf "algorithm %s: %d channels, %d dependencies, CDG %s@\n" r.algorithm
    r.num_channels r.num_dependencies
    (if r.acyclic then "acyclic" else Printf.sprintf "cyclic (%d cycles)" (List.length r.cycles));
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %s: %a@\n" name Properties.pp_verdict v)
    r.properties;
  List.iteri
    (fun i cr ->
      Format.fprintf ppf "  cycle %d (len %d): %a%s@\n" i (List.length cr.cr_cycle)
        Cycle_analysis.pp_verdict cr.cr_verdict
        (if cr.cr_searched then
           Printf.sprintf " [search: %s in %d runs]"
             (match cr.cr_witness with
             | Some w ->
               Printf.sprintf "witness (%s)"
                 (Engine.deadlock_class_string w.Explorer.w_info.Engine.d_class)
             | None -> "no deadlock")
             cr.cr_search_runs
         else ""))
    r.cycles;
  Format.fprintf ppf "  conclusion: %a@\n" pp_conclusion r.conclusion
