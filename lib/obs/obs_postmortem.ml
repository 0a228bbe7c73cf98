(* Deadlock post-mortem: reconstruct the knot from a recorded event stream.

   Works purely on events (plus an optional Routing.t for CDG
   classification), so it has no dependency on engine internals: the final
   wait-for edges come from Wait_add/Wait_drop/Channel_acquire, channel
   ownership and occupancy history from Channel_acquire/Channel_release,
   and the knot is the cycle of the functional graph

     waiter --wants--> channel --held by--> next waiter

   A holder may occupy several channels (a stretched worm), so the wanted
   channels alone are not necessarily CDG-adjacent: the dependency chain
   runs through the holder's held channels.  Worms acquire channels in
   path order, so expanding each wanted channel into its holder's held
   suffix (wanted, then every channel the holder acquired after it) yields
   a channel sequence whose consecutive pairs are all CDG edges -- within
   a worm by path adjacency, across worms by last-held -> wanted.  That
   expanded cycle is what Cycle_analysis.classify (Theorems 2-5) gets. *)

type wait_edge = {
  we_label : string;
  we_channel : Topology.channel;
  we_since : int;
  we_holder : string option;
}

type occupancy = {
  oc_channel : Topology.channel;
  oc_label : string;
  oc_start : int;
  oc_stop : int option;  (* None: still held when the stream ended *)
}

type t = {
  pm_outcome : string option;
  pm_last_cycle : int;
  pm_waits : wait_edge list;  (* outstanding at end, sorted by label *)
  pm_owners : (Topology.channel * string) list;  (* held at end, sorted *)
  pm_knot : (string * Topology.channel) list;
      (* (waiter, wanted channel) around the cycle; [] when no knot *)
  pm_cycle : Topology.channel list;  (* knot expanded through held chains *)
  pm_occupancy : occupancy list;  (* chronological *)
  pm_aborts : (string * int) list;
  pm_detections : (int * string list) list;  (* chronological *)
  pm_victims : (string * int) list;  (* chronological *)
  pm_verdict : (Cycle_analysis.analysis * Cycle_analysis.verdict) option;
  pm_class : Waitfor.deadlock_class option;  (* Some only on a "deadlock" outcome *)
}

let knot_channels t = t.pm_cycle

let analyze ?rt events =
  let owners : (Topology.channel, string * int) Hashtbl.t = Hashtbl.create 16 in
  let waits : (string, Topology.channel * int * string option) Hashtbl.t = Hashtbl.create 16 in
  let occs = ref [] in
  let aborts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let detections = ref [] in
  let victims = ref [] in
  let outcome = ref None in
  let delivered = ref 0 in
  let last = ref 0 in
  let note_cycle e = match Obs_event.cycle_of e with Some c when c > !last -> last := c | _ -> () in
  List.iter
    (fun (e : Obs_event.t) ->
      note_cycle e;
      match e with
      | Run_start _ -> delivered := 0
      | Run_end { outcome = o; _ } -> outcome := Some o
      | Delivered _ -> incr delivered
      | Channel_acquire { cycle; label; channel; _ } ->
        (match Hashtbl.find_opt owners channel with
        | Some (l, s) ->
          occs := { oc_channel = channel; oc_label = l; oc_start = s; oc_stop = Some cycle } :: !occs
        | None -> ());
        Hashtbl.replace owners channel (label, cycle);
        (* Winning any channel resolves the waiter's outstanding edge (the
           adaptive engine may acquire a different option than the one it
           first blocked on). *)
        Hashtbl.remove waits label
      | Channel_release { cycle; channel; _ } -> (
        match Hashtbl.find_opt owners channel with
        | Some (l, s) ->
          Hashtbl.remove owners channel;
          occs := { oc_channel = channel; oc_label = l; oc_start = s; oc_stop = Some cycle } :: !occs
        | None -> ())
      | Wait_add { cycle; label; channel; holder } ->
        Hashtbl.replace waits label (channel, cycle, holder)
      | Wait_drop { label; channel; _ } -> (
        match Hashtbl.find_opt waits label with
        | Some (c, _, _) when c = channel -> Hashtbl.remove waits label
        | _ -> ())
      | Abort { label; _ } ->
        Hashtbl.remove waits label;
        Hashtbl.replace aborts label (1 + Option.value ~default:0 (Hashtbl.find_opt aborts label))
      | Deadlock_detected { cycle; members; _ } ->
        detections := (cycle, members) :: !detections
      | Victim_aborted { cycle; label; _ } -> victims := (label, cycle) :: !victims
      | _ -> ())
    events;
  let open_occs =
    Hashtbl.fold
      (fun channel (l, s) acc ->
        { oc_channel = channel; oc_label = l; oc_start = s; oc_stop = None } :: acc)
      owners []
  in
  let occupancy =
    List.sort
      (fun a b -> compare (a.oc_start, a.oc_channel) (b.oc_start, b.oc_channel))
      (List.rev_append !occs open_occs)
  in
  let wait_edges =
    Hashtbl.fold
      (fun label (channel, since, holder) acc ->
        (* Prefer the live owner table over the holder recorded at
           Wait_add time: ownership may have moved since. *)
        let holder =
          match Hashtbl.find_opt owners channel with
          | Some (l, _) -> Some l
          | None -> holder
        in
        { we_label = label; we_channel = channel; we_since = since; we_holder = holder } :: acc)
      waits []
    |> List.sort (fun a b -> compare a.we_label b.we_label)
  in
  (* the knot: the first wait-for cycle a walk from the sorted outstanding
     waiters runs into, rotated to its smallest label *)
  let holder label =
    match Hashtbl.find_opt waits label with
    | None -> None
    | Some (channel, _, _) -> Option.map fst (Hashtbl.find_opt owners channel)
  in
  let knot =
    Waitfor.cycle ~next:holder (List.map (fun w -> w.we_label) wait_edges)
    |> Waitfor.rotate
    |> List.map (fun label ->
           let channel, _, _ = Hashtbl.find waits label in
           (label, channel))
  in
  (* Expand each wanted channel into its holder's held suffix: the
     still-open occupancy entries of a label, in acquisition (= path)
     order, from the wanted channel onward. *)
  let held_in_order label =
    List.filter_map
      (fun o -> if o.oc_stop = None && o.oc_label = label then Some o.oc_channel else None)
      occupancy
  in
  let cycle =
    List.concat_map
      (fun (_, wanted) ->
        match Hashtbl.find_opt owners wanted with
        | None -> [ wanted ]
        | Some (holder, _) ->
          let rec from = function
            | c :: _ as suffix when c = wanted -> suffix
            | _ :: tl -> from tl
            | [] -> [ wanted ]
          in
          from (held_in_order holder))
      knot
  in
  let verdict =
    match (rt, cycle) with
    | None, _ | _, [] -> None
    | Some rt, channels ->
      let cdg = Cdg.build rt in
      let rec edges_ok = function
        | a :: (b :: _ as tl) -> List.mem b (Cdg.succ cdg a) && edges_ok tl
        | [ a ] -> List.mem (List.hd channels) (Cdg.succ cdg a)
        | [] -> false
      in
      if edges_ok channels then Some (Cycle_analysis.classify cdg channels) else None
  in
  {
    pm_outcome = !outcome;
    pm_last_cycle = !last;
    pm_waits = wait_edges;
    pm_owners =
      Hashtbl.fold (fun c (l, _) acc -> (c, l) :: acc) owners [] |> List.sort compare;
    pm_knot = knot;
    pm_cycle = cycle;
    pm_occupancy = occupancy;
    pm_aborts =
      Hashtbl.fold (fun l n acc -> (l, n) :: acc) aborts [] |> List.sort compare;
    pm_detections = List.rev !detections;
    pm_victims = List.rev !victims;
    pm_verdict = verdict;
    pm_class =
      (match !outcome with
      | Some "deadlock" -> Some (Waitfor.classify ~cycle:knot ~delivered:(!delivered > 0))
      | _ -> None);
  }

let pp ?topo () ppf t =
  let chan c =
    match topo with
    | Some tp -> Topology.channel_name tp c
    | None -> Printf.sprintf "channel#%d" c
  in
  Format.fprintf ppf "=== post-mortem ===@\n";
  Format.fprintf ppf "outcome: %s%s at cycle %d@\n"
    (Option.value ~default:"(no run-end event)" t.pm_outcome)
    (match t.pm_class with
    | Some c -> Printf.sprintf " (%s)" (Waitfor.deadlock_class_string c)
    | None -> "")
    t.pm_last_cycle;
  (match t.pm_knot with
  | [] -> Format.fprintf ppf "wait-for knot: none@\n"
  | knot ->
    Format.fprintf ppf "wait-for knot (%d messages):@\n" (List.length knot);
    List.iter
      (fun (label, channel) ->
        let held =
          List.filter_map (fun (c, l) -> if l = label then Some (chan c) else None) t.pm_owners
        in
        let since =
          match List.find_opt (fun w -> w.we_label = label) t.pm_waits with
          | Some w -> Printf.sprintf " since cycle %d" w.we_since
          | None -> ""
        in
        let holder =
          match List.assoc_opt channel t.pm_owners with
          | Some h -> " held by " ^ h
          | None -> ""
        in
        Format.fprintf ppf "  %s holds [%s], waits for %s%s%s@\n" label
          (String.concat "; " held) (chan channel) holder since)
      knot;
    Format.fprintf ppf "knot channel cycle: %s@\n"
      (String.concat " -> " (List.map chan t.pm_cycle)));
  (match t.pm_verdict with
  | Some (_, verdict) ->
    Format.fprintf ppf "classification: %a@\n" Cycle_analysis.pp_verdict verdict
  | None ->
    if t.pm_knot <> [] then
      Format.fprintf ppf "classification: unavailable (no routing context)@\n");
  (if t.pm_waits <> [] then begin
     Format.fprintf ppf "outstanding waits:@\n";
     List.iter
       (fun w ->
         Format.fprintf ppf "  %s -> %s%s (since cycle %d)@\n" w.we_label (chan w.we_channel)
           (match w.we_holder with Some h -> " held by " ^ h | None -> "")
           w.we_since)
       t.pm_waits
   end);
  (if t.pm_occupancy <> [] then begin
     Format.fprintf ppf "channel occupancy history:@\n";
     List.iter
       (fun o ->
         match o.oc_stop with
         | Some stop ->
           Format.fprintf ppf "  %s: %s [%d..%d]@\n" (chan o.oc_channel) o.oc_label o.oc_start
             stop
         | None ->
           Format.fprintf ppf "  %s: %s [%d.. never released]@\n" (chan o.oc_channel) o.oc_label
             o.oc_start)
       t.pm_occupancy
   end);
  (if t.pm_detections <> [] then begin
     Format.fprintf ppf "online detections:@\n";
     List.iter
       (fun (cycle, members) ->
         Format.fprintf ppf "  cycle %d: %s@\n" cycle (String.concat " -> " members))
       t.pm_detections
   end);
  (if t.pm_victims <> [] then begin
     Format.fprintf ppf "deadlock victims:@\n";
     List.iter
       (fun (l, cycle) -> Format.fprintf ppf "  %s (aborted cycle %d)@\n" l cycle)
       t.pm_victims
   end);
  if t.pm_aborts <> [] then begin
    Format.fprintf ppf "aborts:@\n";
    List.iter (fun (l, n) -> Format.fprintf ppf "  %s x%d@\n" l n) t.pm_aborts
  end

let render ?topo t = Format.asprintf "%a" (pp ?topo ()) t
