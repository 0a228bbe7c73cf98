type result = {
  md_no_delay_safe : bool;
  md_min_delay : int option;
  md_witness : Explorer.witness option;
  md_runs : int;
}

(* The ring channel on which a message enters the cycle: holding the header
   there realizes the paper's "delayed in the network even though the output
   channel is always free". *)
let entry_channel net (intent : Paper_nets.intent) =
  match Paper_nets.in_cycle_channels net intent with
  | c :: _ -> c
  | [] -> invalid_arg "Min_delay: message never enters the cycle"

let space_for net h =
  let templates =
    List.map
      (fun intent ->
        let holds = if h = 0 then [ [] ] else [ []; [ (entry_channel net intent, h) ] ] in
        Explorer.intent_template ~extra:[ -2; -1 ] ~holds ~offsets:[ 0 ] net intent)
      net.Paper_nets.intents
  in
  {
    (Explorer.default_space templates) with
    gaps = [ 0 ];
    buffers = [ 1 ];
  }

let search ?max_h net =
  let rt = Cd_algorithm.of_net net in
  let max_h =
    match max_h with
    | Some m -> m
    | None -> max 2 (Array.length net.Paper_nets.ring_channels / 4)
  in
  let runs = ref 0 in
  let base =
    match Explorer.explore rt (space_for net 0) with
    | Explorer.No_deadlock { runs = r } ->
      runs := !runs + r;
      true
    | Explorer.Deadlock_found { runs = r; _ } ->
      runs := !runs + r;
      false
  in
  let rec sweep h =
    if h > max_h then (None, None)
    else
      match Explorer.explore rt (space_for net h) with
      | Explorer.Deadlock_found { runs = r; witness } ->
        runs := !runs + r;
        (Some h, Some witness)
      | Explorer.No_deadlock { runs = r } ->
        runs := !runs + r;
        sweep (h + 1)
  in
  let md_min_delay, md_witness = if base then sweep 1 else (Some 0, None) in
  { md_no_delay_safe = base; md_min_delay; md_witness; md_runs = !runs }
