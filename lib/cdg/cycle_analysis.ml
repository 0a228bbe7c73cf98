type cycle_message = {
  cm_msg : Cdg.message;
  cm_label : string;
  cm_entry : int;
  cm_span : int;
  cm_access : int;
  cm_pre_cycle : Topology.channel list;
  cm_contiguous : bool;
}

type shared_channel = {
  sc_channel : Topology.channel;
  sc_users : Cdg.message list;
  sc_inside : bool;
}

type analysis = {
  a_cycle : Topology.channel list;
  a_messages : cycle_message list;
  a_shared : shared_channel list;
  a_outside_shared : shared_channel list;
}

type verdict =
  | Deadlock_reachable of string
  | Unreachable of string
  | Needs_search of string

let pp_verdict ppf = function
  | Deadlock_reachable why -> Format.fprintf ppf "deadlock reachable: %s" why
  | Unreachable why -> Format.fprintf ppf "unreachable (false resource cycle): %s" why
  | Needs_search why -> Format.fprintf ppf "needs search: %s" why

(* A message's use of the cycle: split its path into the prefix before the
   first cycle channel and the cycle channels themselves; check the cycle
   channels form one contiguous run both on the path and around the cycle. *)
let message_view topo cycle_index cycle_len path msg =
  let label (s, d) =
    Printf.sprintf "%s->%s" (Topology.node_name topo s) (Topology.node_name topo d)
  in
  let on_cycle c = cycle_index c >= 0 in
  let pre, rest =
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | c :: tl when on_cycle c -> (List.rev acc, c :: tl)
      | c :: tl -> split (c :: acc) tl
    in
    split [] path
  in
  let cycle_part, tail_after =
    let rec split acc = function
      | [] -> (List.rev acc, [])
      | c :: tl when on_cycle c -> split (c :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    split [] rest
  in
  (* contiguous along the cycle: each next channel is the cyclic successor *)
  let rec consecutive = function
    | c1 :: (c2 :: _ as tl) ->
      (cycle_index c2 = (cycle_index c1 + 1) mod cycle_len) && consecutive tl
    | _ -> true
  in
  let contiguous =
    cycle_part <> []
    && (not (List.exists on_cycle tail_after))
    && consecutive cycle_part
  in
  match cycle_part with
  | [] -> None
  | first :: _ ->
    Some
      {
        cm_msg = msg;
        cm_label = label msg;
        cm_entry = cycle_index first;
        cm_span = List.length cycle_part;
        cm_access = List.length pre;
        cm_pre_cycle = pre;
        cm_contiguous = contiguous;
      }

let analyze cdg cycle =
  let topo = Cdg.topology cdg in
  let cycle_arr = Array.of_list cycle in
  let cycle_len = Array.length cycle_arr in
  let index_tbl = Hashtbl.create 16 in
  Array.iteri (fun i c -> Hashtbl.replace index_tbl c i) cycle_arr;
  let cycle_index c = match Hashtbl.find_opt index_tbl c with Some i -> i | None -> -1 in
  (* candidate messages: users of any cycle channel *)
  let candidates =
    List.sort_uniq compare (List.concat_map (fun c -> Cdg.channel_users cdg c) cycle)
  in
  let messages =
    List.filter_map
      (fun msg -> message_view topo cycle_index cycle_len (Cdg.path_of cdg msg) msg)
      candidates
  in
  (* channels used by at least two cycle messages *)
  let usage = Hashtbl.create 64 in
  List.iter
    (fun cm ->
      List.iter
        (fun c ->
          let cur = match Hashtbl.find_opt usage c with Some l -> l | None -> [] in
          Hashtbl.replace usage c (cm.cm_msg :: cur))
        (Cdg.path_of cdg cm.cm_msg))
    messages;
  let shared =
    Hashtbl.fold
      (fun c users acc ->
        if List.length users >= 2 then
          { sc_channel = c; sc_users = List.rev users; sc_inside = cycle_index c >= 0 } :: acc
        else acc)
      usage []
    |> List.sort (fun a b -> compare a.sc_channel b.sc_channel)
  in
  let outside = List.filter (fun sc -> not sc.sc_inside) shared in
  { a_cycle = cycle; a_messages = messages; a_shared = shared; a_outside_shared = outside }

(* Access distance of a cycle message relative to a given shared channel:
   number of pre-cycle channels strictly after the shared channel. *)
let access_after_shared cm sc =
  let rec count seen n = function
    | [] -> if seen then Some n else None
    | c :: rest ->
      if c = sc.sc_channel then count true 0 rest
      else count seen (if seen then n + 1 else n) rest
  in
  count false 0 cm.cm_pre_cycle

let classify ?(minimal = false) ?(suffix_closed = false) cdg cycle =
  let analysis = analyze cdg cycle in
  let verdict =
    if suffix_closed then
      Deadlock_reachable
        "Corollary 2: a suffix-closed oblivious algorithm has no unreachable configurations"
    else if List.exists (fun cm -> not cm.cm_contiguous) analysis.a_messages then
      Needs_search "a supporting message enters the cycle more than once"
    else
      match analysis.a_outside_shared with
      | [] ->
        Deadlock_reachable
          "Theorem 2: every shared channel is within the cycle, so the configuration is \
           reachable"
      | [ sc ] -> begin
        let sharers =
          List.filter
            (fun cm -> List.mem cm.cm_msg sc.sc_users)
            analysis.a_messages
        in
        let all_use = List.length sharers = List.length analysis.a_messages in
        match List.length sharers with
        | 0 | 1 ->
          Deadlock_reachable
            "Theorem 2: no channel outside the cycle is shared by two or more cycle messages"
        | 2 ->
          Deadlock_reachable
            "Theorem 4: a channel outside the cycle shared by only two messages always \
             yields a deadlock"
        | 3 ->
          if minimal && all_use then
            Deadlock_reachable
              "Theorem 3: minimal routing with a single shared channel used by all cycle \
               messages cannot form an unreachable configuration"
          else begin
            let to_sharer cm =
              match access_after_shared cm sc with
              | Some a ->
                {
                  Theorem5.sh_label = cm.cm_label;
                  sh_access = a;
                  sh_entry = cm.cm_entry;
                  sh_span = cm.cm_span;
                }
              | None ->
                {
                  Theorem5.sh_label = cm.cm_label;
                  sh_access = cm.cm_access;
                  sh_entry = cm.cm_entry;
                  sh_span = cm.cm_span;
                }
            in
            let others =
              List.filter_map
                (fun cm ->
                  if List.mem cm.cm_msg sc.sc_users then None
                  else
                    Some
                      {
                        Theorem5.ot_entry = cm.cm_entry;
                        ot_span = cm.cm_span;
                        ot_uses_shared = false;
                      })
                analysis.a_messages
            in
            let input =
              {
                Theorem5.cycle_len = List.length cycle;
                sharers = List.map to_sharer sharers;
                others;
              }
            in
            let conditions, unreachable = Theorem5.check input in
            let failed =
              List.filter_map
                (fun (c : Theorem5.condition) ->
                  if c.c_holds then None else Some (string_of_int c.c_index))
                conditions
            in
            if unreachable then
              Unreachable "Theorem 5: the eight conditions hold (three sharers)"
            else
              Deadlock_reachable
                (Printf.sprintf "Theorem 5: condition(s) %s violated (three sharers)"
                   (String.concat "," failed))
          end
        | _ ->
          if minimal && all_use then
            Deadlock_reachable
              "Theorem 3: minimal routing with a single shared channel used by all cycle \
               messages cannot form an unreachable configuration"
          else
            Needs_search
              "four or more messages share the outside channel: beyond Theorem 5 (Figure-1 \
               territory)"
      end
      | _ -> Needs_search "multiple shared channels outside the cycle"
  in
  (analysis, verdict)

type routing_analysis = {
  ra_summary : (string * Properties.verdict) list;
  ra_cdg : Cdg.t;
  ra_cycles : (analysis * verdict) list;
}

let of_paths paths =
  let summary = Properties.of_paths paths in
  let holds name = List.exists (fun (n, v) -> n = name && Properties.is_holds v) summary in
  let cdg = Cdg.of_paths paths in
  let cycles = if Cdg.is_acyclic cdg then [] else Cdg.elementary_cycles ~max_cycles:100 cdg in
  let classify = classify ~minimal:(holds "minimal") ~suffix_closed:(holds "suffix-closed") cdg in
  { ra_summary = summary; ra_cdg = cdg; ra_cycles = List.map classify cycles }

let of_routing rt = of_paths (Routing.paths rt)
