type msg = {
  mc_label : string;
  mc_src : Topology.node;
  mc_dst : Topology.node;
  mc_length : int;
}

type verdict =
  | Safe of { states : int }
  | Deadlock of { states : int; depth : int; cycle : string list }
  | Out_of_budget of { states : int }

(* State: for each message, [head; injected; consumed].  With one-flit
   buffers a worm's flits occupy the contiguous cells
   [top - n + 1 .. top] of its path, where top = min(head, k-1) and
   n = injected - consumed, so this triple determines the whole network
   occupancy. *)

let check ?(max_states = 2_000_000) ?(allow_stalls = false) rt msgs =
  if msgs = [] then invalid_arg "Model_checker.check: empty message set";
  let labels = List.map (fun m -> m.mc_label) msgs in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Model_checker.check: duplicate labels";
  let marr = Array.of_list msgs in
  let nmsg = Array.length marr in
  let paths =
    Array.map (fun m -> Array.of_list (Routing.path_exn rt m.mc_src m.mc_dst)) marr
  in
  let init = Array.make (3 * nmsg) 0 in
  Array.iteri (fun i _ -> init.(3 * i) <- -1) marr;
  let head s i = s.((3 * i) + 0)
  and injected s i = s.((3 * i) + 1)
  and consumed s i = s.((3 * i) + 2) in
  let k i = Array.length paths.(i) in
  let len i = marr.(i).mc_length in
  let delivered s i = consumed s i = len i in
  let inflight s i = injected s i - consumed s i in
  (* channel -> owning message, from the compressed occupancy *)
  let owners s =
    let tbl = Hashtbl.create 16 in
    for i = 0 to nmsg - 1 do
      let h = head s i and n = inflight s i in
      if h >= 0 && n > 0 then begin
        let top = min h (k i - 1) in
        for cell = top - n + 1 to top do
          Hashtbl.replace tbl paths.(i).(cell) i
        done
      end
    done;
    tbl
  in
  (* the channel message i requests in state s, if any *)
  let request s i =
    if delivered s i then None
    else begin
      let h = head s i in
      if h = -1 then if injected s i = 0 then Some paths.(i).(0) else None
      else if h < k i - 1 then Some paths.(i).(h + 1)
      else None
    end
  in
  (* circular wait among in-network blocked messages = deadlock; [next]
     has no edge out of a pending or delivered message *)
  let all = List.init nmsg Fun.id in
  let wait_cycle s own =
    let next i =
      if head s i < 0 then None
      else
        match request s i with
        | Some c -> (
          match Hashtbl.find_opt own c with Some j when j <> i -> Some j | _ -> None)
        | None -> None
    in
    Waitfor.cycle ~next all
  in
  (* deterministic step given an award assignment (message -> awarded?) *)
  let step s awards =
    let s' = Array.copy s in
    for i = 0 to nmsg - 1 do
      if not (delivered s i) then begin
        let was_pending = head s i = -1 in
        (* consumption at the destination *)
        if head s' i >= k i - 1 && inflight s' i >= 1 then begin
          s'.((3 * i) + 2) <- consumed s' i + 1;
          if head s' i = k i - 1 then s'.((3 * i) + 0) <- k i
        end;
        (* header hop / header injection *)
        (match awards.(i) with
        | false -> ()
        | true ->
          if was_pending then begin
            s'.((3 * i) + 0) <- 0;
            s'.((3 * i) + 1) <- 1
          end
          else s'.((3 * i) + 0) <- head s' i + 1);
        (* data-flit injection at the source *)
        if (not was_pending) && head s' i >= 0 && injected s' i < len i then begin
          let top = min (head s' i) (k i - 1) in
          if inflight s' i < top + 1 then s'.((3 * i) + 1) <- injected s' i + 1
        end
      end
    done;
    s'
  in
  (* Enumerate award assignments.  The paper's base model forwards a header
     as soon as an output channel is available, so a free channel with an
     in-network requester MUST be granted (the adversary only picks which
     requester wins).  Channels wanted only by still-pending messages may
     also be granted to nobody: a node chooses when its message starts
     (assumption 1).  With [allow_stalls] every channel may be withheld --
     the Section-6 unbounded-delay adversary. *)
  let successors s =
    let own = owners s in
    let by_channel = Hashtbl.create 8 in
    for i = 0 to nmsg - 1 do
      match request s i with
      | Some c when not (Hashtbl.mem own c) ->
        Hashtbl.replace by_channel c (i :: (try Hashtbl.find by_channel c with Not_found -> []))
      | Some _ | None -> ()
    done;
    let contended =
      Hashtbl.fold
        (fun _ rs acc ->
          let stallable =
            allow_stalls || List.for_all (fun i -> head s i = -1) rs
          in
          (rs, stallable) :: acc)
        by_channel []
    in
    let results = ref [] in
    let awards = Array.make nmsg false in
    let rec assign = function
      | [] -> results := step s awards :: !results
      | (requesters, stallable) :: rest ->
        if stallable then assign rest;
        List.iter
          (fun i ->
            awards.(i) <- true;
            assign rest;
            awards.(i) <- false)
          requesters
    in
    assign contended;
    !results
  in
  (* BFS *)
  let visited = Hashtbl.create 4096 in
  let queue = Queue.create () in
  Hashtbl.replace visited init ();
  Queue.add (init, 0) queue;
  let states = ref 1 in
  let outcome = ref None in
  while !outcome = None && not (Queue.is_empty queue) do
    let s, depth = Queue.pop queue in
    let own = owners s in
    (match wait_cycle s own with
    | _ :: _ as cyc ->
      outcome :=
        Some
          (Deadlock
             { states = !states; depth; cycle = List.map (fun i -> marr.(i).mc_label) cyc })
    | [] ->
      List.iter
          (fun s' ->
            if s' <> s && not (Hashtbl.mem visited s') then begin
              if !states >= max_states then outcome := Some (Out_of_budget { states = !states })
              else begin
                Hashtbl.replace visited s' ();
                incr states;
                Queue.add (s', depth + 1) queue
              end
            end)
          (successors s))
  done;
  match !outcome with
  | Some v -> v
  | None -> Safe { states = !states }

let check_net ?max_states ?allow_stalls ?(extra = [ -2; -1; 0; 1 ]) ?domains
    (net : Paper_nets.net) =
  let rt = Cd_algorithm.of_net net in
  let candidates =
    List.map
      (fun (i : Paper_nets.intent) ->
        let span = max 1 (List.length (Paper_nets.in_cycle_channels net i)) in
        let lengths = List.sort_uniq compare (List.map (fun e -> max 1 (span + e)) extra) in
        List.map (fun l -> { mc_label = i.i_label; mc_src = i.i_src; mc_dst = i.i_dst; mc_length = l })
          lengths)
      net.intents
  in
  let combos = Array.of_list (Combinat.cartesian candidates) in
  (* One length combo per pool task, stopping at the first non-Safe verdict.
     The canonical reduce accumulates state counts in combo order up to and
     including the winner, byte-identical to the sequential sweep for any
     domain count. *)
  let results =
    Wr_pool.map_until ?domains
      ~hit:(function Safe _ -> false | Deadlock _ | Out_of_budget _ -> true)
      (fun ~stop:_ _ msgs -> check ?max_states ?allow_stalls rt msgs)
      combos
  in
  let total_states = ref 0 in
  let verdict = ref None in
  (try
     Array.iter
       (function
         | None -> raise Exit
         | Some (Safe { states }) -> total_states := !total_states + states
         | Some v ->
           verdict := Some v;
           raise Exit)
       results
   with Exit -> ());
  match !verdict with
  | Some (Deadlock d) -> Deadlock { d with states = !total_states + d.states }
  | Some (Out_of_budget b) -> Out_of_budget { states = !total_states + b.states }
  | Some (Safe _) | None -> Safe { states = !total_states }

let pp ppf = function
  | Safe { states } -> Format.fprintf ppf "safe (%d states explored)" states
  | Deadlock { states; depth; cycle } ->
    Format.fprintf ppf "DEADLOCK at depth %d after %d states: %s" depth states
      (String.concat " -> " cycle)
  | Out_of_budget { states } -> Format.fprintf ppf "out of budget (%d states)" states
