(* Online deadlock detection; see obs_detect.mli for the contract and
   DESIGN.md section 13 for the bounded-latency argument.

   The wait-for graph is functional (a blocked message wants exactly one
   channel, a channel has exactly one owner), which buys two structural
   facts the whole module leans on:

   - The chronologically last edge of any cycle is a Wait_add: an
     acquisition clears the acquirer's own out-edge, so ownership changes
     alone cannot close a cycle -- the acquirer must block again first.
     Walking from the label of each incoming Wait_add ([Waitfor.cycle]
     with that one start) therefore finds every cycle exactly when it
     closes.

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

(* A closed wait-for cycle awaiting quiescence confirmation.  [formed] is
   the cycle of the last event touching any member; any member activity
   resets it.  [mset] is the sorted member list used as dedupe key and
   for O(members) membership tests. *)
type candidate = {
  mutable formed : int;
  members : (string * Topology.channel) list;  (* rotated to smallest label *)
  mset : string list;  (* sorted labels *)
}

type t = {
  cfg : config;
  owners : (Topology.channel, string) Hashtbl.t;  (* channel -> holder *)
  waits : (string, Topology.channel * int) Hashtbl.t;  (* label -> wanted, since *)
  mutable candidates : candidate list;
  mutable stall_horizon : int;
  mutable delivered : int;  (* Delivered events seen since Run_start *)
}

let create cfg =
  if cfg.bound < 1 then invalid_arg "Obs_detect.create: bound < 1";
  if cfg.backstop < 1 then invalid_arg "Obs_detect.create: backstop < 1";
  {
    cfg;
    owners = Hashtbl.create 64;
    waits = Hashtbl.create 64;
    candidates = [];
    stall_horizon = 0;
    delivered = 0;
  }

let member label k = List.mem label k.mset
let wants channel k = List.exists (fun (_, c) -> c = channel) k.members

let kill t pred = t.candidates <- List.filter (fun k -> not (pred k)) t.candidates

(* Any event naming a member proves the knot candidate was not yet
   quiescent at [cycle]: restart its silence clock. *)
let touch t label cycle =
  List.iter (fun k -> if member label k then k.formed <- cycle) t.candidates

(* The functional wait-for edge out of [label]: the holder of the channel
   it waits for. *)
let holder t label =
  match Hashtbl.find_opt t.waits label with
  | None -> None
  | Some (channel, _) -> Hashtbl.find_opt t.owners channel

let feed t (e : Obs_event.t) =
  match e with
  | Run_start _ ->
    Hashtbl.reset t.owners;
    Hashtbl.reset t.waits;
    t.candidates <- [];
    t.stall_horizon <- 0;
    t.delivered <- 0
  | Fault { kind = Planned_stall; cycle; duration; _ } ->
    t.stall_horizon <- max t.stall_horizon (cycle + duration)
  | Fault _ -> ()
  | Wait_add { cycle; label; channel; _ } -> (
    (* A retargeted edge invalidates candidates built through the old
       one (defensive: engines emit Wait_drop first). *)
    (match Hashtbl.find_opt t.waits label with
    | Some (c, _) when c <> channel -> kill t (member label)
    | _ -> ());
    Hashtbl.replace t.waits label (channel, cycle);
    match Waitfor.cycle ~next:(holder t) [ label ] with
    | [] -> ()
    | cyc ->
      let members =
        List.map (fun l -> (l, fst (Hashtbl.find t.waits l))) (Waitfor.rotate cyc)
      in
      let mset = List.sort compare cyc in
      if not (List.exists (fun k -> k.mset = mset) t.candidates) then
        t.candidates <- { formed = cycle; members; mset } :: t.candidates)
  | Channel_acquire { cycle; label; channel; _ } ->
    Hashtbl.replace t.owners channel label;
    Hashtbl.remove t.waits label;
    (* The acquirer's out-edge is gone and the channel's owner changed:
       both break any candidate routed through them. *)
    kill t (fun k -> member label k || wants channel k);
    touch t label cycle
  | Channel_release { cycle; label; channel } ->
    Hashtbl.remove t.owners channel;
    (* Releasing a wanted channel severs the cycle; releasing any other
       channel (tail cascade) is still member activity. *)
    kill t (wants channel);
    touch t label cycle
  | Wait_drop { label; _ } | Abort { label; _ } | Gave_up { label; _ } ->
    Hashtbl.remove t.waits label;
    kill t (member label)
  | Delivered { label; _ } ->
    t.delivered <- t.delivered + 1;
    Hashtbl.remove t.waits label;
    kill t (member label)
  | Flit { cycle; label; _ } -> touch t label cycle
  | Retry _ | Run_end _ | Deadlock_detected _ | Victim_aborted _ -> ()

(* Confirmation-time structural re-check: every member still wants its
   recorded channel and every wanted channel is still held by the next
   member around the cycle. *)
let verify t members =
  let arr = Array.of_list members in
  let n = Array.length arr in
  let ok = ref true in
  for i = 0 to n - 1 do
    let l, c = arr.(i) in
    let l', _ = arr.((i + 1) mod n) in
    (match Hashtbl.find_opt t.waits l with
    | Some (c', _) when c' = c -> ()
    | _ -> ok := false);
    match Hashtbl.find_opt t.owners c with
    | Some o when o = l' -> ()
    | _ -> ok := false
  done;
  !ok

let held_sorted t label =
  Hashtbl.fold (fun c o acc -> if o = label then c :: acc else acc) t.owners []
  |> List.sort compare

let wait_since t label =
  match Hashtbl.find_opt t.waits label with Some (_, s) -> s | None -> max_int

(* All policies reduce to "smallest key wins" over a (int, int, label)
   triple, so ties always fall through to the label and the choice is
   independent of member order, hash layout, and domain count. *)
let choose_victim t members =
  let key l =
    let s = wait_since t l in
    match t.cfg.policy with
    | Minimal_victim -> (List.length (held_sorted t l), -s, l)
    | Youngest -> (0, -s, l)
    | Oldest -> (0, s, l)
  in
  match List.map fst members with
  | [] -> []
  | l0 :: rest ->
    [ snd (List.fold_left
             (fun (bk, bl) l ->
               let k = key l in
               if k < bk then (k, l) else (bk, bl))
             (key l0, l0) rest) ]

let tick t ~now =
  let ready, rest =
    List.partition
      (fun k -> now - max k.formed t.stall_horizon >= t.cfg.bound)
      t.candidates
  in
  t.candidates <- rest;
  List.filter_map
    (fun k ->
      if verify t k.members then
        Some
          {
            dk_cycle = now;
            dk_formed = k.formed;
            dk_members = k.members;
            dk_held = List.map (fun (l, _) -> (l, held_sorted t l)) k.members;
            dk_victims = choose_victim t k.members;
            (* provisional: a message still in flight may yet deliver; the
               run-end kernel classification is authoritative *)
            dk_class = Waitfor.classify ~cycle:k.members ~delivered:(t.delivered > 0);
          }
      else None)
    ready
  |> List.sort (fun a b -> compare a.dk_members b.dk_members)

(* Offline replay.  Plan-announcement Fault events carry their FUTURE
   fire cycle, so they must not advance the replay clock. *)
let event_now (e : Obs_event.t) =
  match e with
  | Fault { kind = Planned_failure | Planned_stall | Planned_drop; _ } -> None
  | _ -> Obs_event.cycle_of e

let scan cfg events =
  let t = create cfg in
  let dets = ref [] in
  let now = ref 0 in
  let step upto =
    while !now < upto do
      incr now;
      dets := List.rev_append (List.rev (tick t ~now:!now)) !dets
    done
  in
  List.iter
    (fun e ->
      (match event_now e with Some c when c > !now -> step (c - 1); now := c | _ -> ());
      feed t e)
    events;
  (* Trailing ticks: the stream stops at the final event but quiescent
     candidates still need [bound] silent cycles (past any stall) to
     confirm. *)
  step (max !now t.stall_horizon + cfg.bound);
  List.rev !dets

let pp_detection ?topo () ppf d =
  let chan c =
    match topo with
    | Some tp -> Topology.channel_name tp c
    | None -> Printf.sprintf "channel#%d" c
  in
  Format.fprintf ppf "knot confirmed at cycle %d (quiet since %d, %s): %s; victim%s %s"
    d.dk_cycle d.dk_formed
    (Waitfor.deadlock_class_string d.dk_class)
    (String.concat " -> "
       (List.map (fun (l, c) -> Printf.sprintf "%s(%s)" l (chan c)) d.dk_members))
    (if List.length d.dk_victims = 1 then "" else "s")
    (String.concat ", " d.dk_victims)
