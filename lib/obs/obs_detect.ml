(* Deadlock detection over the wait-for state; see obs_detect.mli for the
   contract and DESIGN.md section 13 for the bounded-latency argument.

   The wait-for graph is functional (a blocked message wants exactly one
   channel, a channel has exactly one owner), which buys two structural
   facts the whole module leans on:

   - The chronologically last edge of any cycle is a wait edge: an
     acquisition clears the acquirer's own out-edge, so ownership changes
     alone cannot close a cycle -- the acquirer must block again first.
     Every member keeps its edge from the moment the cycle closes until
     it breaks, so the cycle's latest wait edge and its members' moves
     since say when the knot last changed.

   - Distinct cycles are vertex-disjoint, so aborting any one member of a
     knot breaks that knot completely and victims for different knots
     never interfere.  "Minimal victim" is always a single message. *)

type victim_policy = Minimal_victim | Youngest | Oldest

let victim_policy_string = function
  | Minimal_victim -> "minimal"
  | Youngest -> "youngest"
  | Oldest -> "oldest"

let victim_policy_of_string = function
  | "minimal" -> Some Minimal_victim
  | "youngest" -> Some Youngest
  | "oldest" -> Some Oldest
  | _ -> None

type config = { bound : int; backstop : int; policy : victim_policy }

let default_config = { bound = 16; backstop = 512; policy = Minimal_victim }

type detection = {
  dk_cycle : int;
  dk_formed : int;
  dk_members : (string * Topology.channel) list;
  dk_held : (string * Topology.channel list) list;
  dk_victims : string list;
  dk_class : Waitfor.deadlock_class;
}

type view = { wait : int array; owner : int array; since : int array; moved : int array }

(* the cycle message [m] last acted: its wait edge appeared or it moved *)
let last_active v m = max v.since.(m) v.moved.(m)

(* the functional wait-for edge out of [m]: the holder of the channel it
   waits for, -1 when none *)
let holder v m = if v.wait.(m) < 0 then -1 else v.owner.(v.wait.(m))

(* Follow the holders from [m] back to [j], which acted last at [a];
   [acc] is the walk so far, newest first.  [] when the walk ends, meets
   a member younger than [j] (or as young with a smaller index), or runs
   [n] more steps: every member owns a channel, so a cycle through [j]
   closes within one step per channel. *)
let rec walk v j a m acc n =
  if m = j then acc
  else if m < 0 || n = 0 then []
  else
    let am = last_active v m in
    if am > a || (am = a && m < j) then [] else walk v j a (holder v m) (m :: acc) (n - 1)

let knot cfg v ~horizon ~after ~now j =
  if v.wait.(j) < 0 then []
  else begin
    let a = last_active v j in
    let quiet_from = max a horizon in
    if now - quiet_from < cfg.bound || after - quiet_from >= cfg.bound then []
    else List.rev (walk v j a (holder v j) [ j ] (Array.length v.owner))
  end

(* the channels [m] owns, ascending *)
let held v m =
  let acc = ref [] in
  for c = Array.length v.owner - 1 downto 0 do
    if v.owner.(c) = m then acc := c :: !acc
  done;
  !acc

(* All policies reduce to "smallest key wins" over an (int, int, label)
   triple, so ties always fall through to the label and the choice is
   independent of member order, index assignment and domain count. *)
let detection cfg v ~now ~label ~delivered ms =
  let ring = List.map snd (Waitfor.rotate (List.map (fun m -> (label m, m)) ms)) in
  let members = List.map (fun m -> (label m, v.wait.(m))) ring in
  let held_by = List.map (fun m -> (m, held v m)) ring in
  let key (m, h) =
    let s = v.since.(m) in
    match cfg.policy with
    | Minimal_victim -> (List.length h, -s, label m)
    | Youngest -> (0, -s, label m)
    | Oldest -> (0, s, label m)
  in
  let victim = snd (List.fold_left min (key (List.hd held_by), List.hd ring)
                      (List.map (fun mh -> (key mh, fst mh)) held_by)) in
  {
    dk_cycle = now;
    dk_formed = List.fold_left (fun f m -> max f (last_active v m)) 0 ms;
    dk_members = members;
    dk_held = List.map (fun (m, h) -> (label m, h)) held_by;
    dk_victims = [ label victim ];
    (* provisional: a message still in flight may yet deliver; the run-end
       kernel classification is authoritative *)
    dk_class = Waitfor.classify ~cycle:members ~delivered;
  }

(* Offline replay.  Plan-announcement Fault events carry their FUTURE
   fire cycle, so they must not advance the replay clock. *)
let event_now (e : Obs_event.t) =
  match e with
  | Fault { kind = Planned_failure | Planned_stall | Planned_drop; _ } -> None
  | _ -> Obs_event.cycle_of e

let scan cfg events =
  if cfg.bound < 1 then invalid_arg "Obs_detect.scan: bound < 1";
  (* a message's index is the order of its label's first wait edge or
     channel event; channels are indices already *)
  let ids = Hashtbl.create 64 and nchan = ref 1 in
  List.iter
    (function
      | Obs_event.Wait_add { label; channel; _ }
      | Channel_acquire { label; channel; _ }
      | Channel_release { label; channel; _ }
      | Flit { label; channel; _ } ->
        if not (Hashtbl.mem ids label) then Hashtbl.add ids label (Hashtbl.length ids);
        nchan := max !nchan (channel + 1)
      | _ -> ())
    events;
  let n = Hashtbl.length ids in
  let labels = Array.make n "" in
  Hashtbl.iter (fun l i -> labels.(i) <- l) ids;
  let v =
    { wait = Array.make n (-1); owner = Array.make !nchan (-1); since = Array.make n 0;
      moved = Array.make n 0 }
  in
  let set a label x = match Hashtbl.find_opt ids label with Some i -> a.(i) <- x | None -> () in
  let horizon = ref 0 and delivered = ref false and ticked = ref (-1) in
  let feed (e : Obs_event.t) =
    match e with
    | Run_start _ ->
      Array.fill v.wait 0 n (-1);
      Array.fill v.owner 0 !nchan (-1);
      Array.fill v.moved 0 n 0;
      horizon := 0;
      delivered := false;
      ticked := -1
    | Fault { kind = Planned_stall; cycle; duration; _ } ->
      horizon := max !horizon (cycle + duration)
    | Wait_add { cycle; label; channel; _ } ->
      set v.wait label channel;
      set v.since label cycle
    | Channel_acquire { cycle; label; channel; _ } ->
      v.owner.(channel) <- Hashtbl.find ids label;
      set v.wait label (-1);
      set v.moved label cycle
    | Channel_release { cycle; label; channel } ->
      v.owner.(channel) <- -1;
      set v.moved label cycle
    | Flit { cycle; label; _ } -> set v.moved label cycle
    | Delivered { label; _ } ->
      delivered := true;
      set v.wait label (-1)
    | Wait_drop { label; _ } | Abort { label; _ } | Gave_up { label; _ } -> set v.wait label (-1)
    | Fault _ | Retry _ | Run_end _ | Deadlock_detected _ | Victim_aborted _ -> ()
  in
  let tick now =
    let found = ref [] in
    for j = 0 to n - 1 do
      match knot cfg v ~horizon:!horizon ~after:!ticked ~now j with
      | [] -> ()
      | ms ->
        found :=
          detection cfg v ~now ~label:(Array.get labels) ~delivered:!delivered ms :: !found
    done;
    ticked := now;
    List.sort (fun a b -> compare a.dk_members b.dk_members) !found
  in
  let dets = ref [] in
  let now = ref 0 in
  let step upto =
    while !now < upto do
      incr now;
      dets := List.rev_append (List.rev (tick !now)) !dets
    done
  in
  List.iter
    (fun e ->
      (match event_now e with Some c when c > !now -> step (c - 1); now := c | _ -> ());
      feed e)
    events;
  (* Trailing ticks: the stream stops at the final event but quiescent
     knots still need [bound] silent cycles (past any stall) to confirm. *)
  step (max !now !horizon + cfg.bound);
  List.rev !dets
