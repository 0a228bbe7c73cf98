type arbitration = Fifo | Priority of string list

type discipline = Wormhole | Virtual_cut_through | Store_and_forward

let discipline_string = function
  | Wormhole -> "wormhole"
  | Virtual_cut_through -> "virtual-cut-through"
  | Store_and_forward -> "store-and-forward"

let discipline_of_string = function
  | "wormhole" | "wh" -> Some Wormhole
  | "virtual-cut-through" | "vct" -> Some Virtual_cut_through
  | "store-and-forward" | "saf" -> Some Store_and_forward
  | _ -> None

(* Process-wide discipline override for matrix sweeps (CI, EXP-SW1): rerun
   an existing oblivious campaign under another discipline without touching
   every config construction site.  Same precedent as [Obs_stats.arm] /
   [Sanitizer.install].  Under a [Store_and_forward] override the effective
   buffer capacity is raised to the longest scheduled message so campaigns
   provisioned for wormhole (capacity 1) stay runnable. *)
let discipline_override_cell : discipline option Atomic.t = Atomic.make None
let set_discipline_override d = Atomic.set discipline_override_cell d
let discipline_override () = Atomic.get discipline_override_cell

type trigger = Watchdog of int | Detect of Obs_detect.config

type recovery = {
  trigger : trigger;
  retry_limit : int;
  backoff : int;
  reroute : Routing.t option;
}

let default_recovery = { trigger = Watchdog 64; retry_limit = 4; backoff = 8; reroute = None }

(* The stall threshold of the global no-progress sweep.  Under [Detect]
   the detector handles wait-for knots, but an {e acyclic} wedge (a worm
   parked forever behind a failed link, holding channels while waiting in
   no cycle) emits no wait cycle to detect -- the [backstop] keeps the
   sweep alive for those. *)
let watchdog_of r =
  match r.trigger with Watchdog w -> w | Detect c -> c.Obs_detect.backstop

type config = {
  buffer_capacity : int;
  arbitration : arbitration;
  discipline : discipline;
  max_cycles : int;
  faults : Fault.plan;
  recovery : recovery option;
}

let default_config =
  {
    buffer_capacity = 1;
    arbitration = Fifo;
    discipline = Wormhole;
    max_cycles = 100_000;
    faults = Fault.empty;
    recovery = None;
  }

let with_discipline d config sched =
  let buffer_capacity =
    match d with
    | Store_and_forward -> max config.buffer_capacity (Schedule.max_length sched)
    | Wormhole | Virtual_cut_through -> config.buffer_capacity
  in
  { config with discipline = d; buffer_capacity }

type message_result = {
  r_label : string;
  r_injected_at : int option;
  r_delivered_at : int option;
}

type blocked_info = {
  b_label : string;
  b_wants : Topology.channel list;
  b_holder : string option;
}

type deadlock_class = Waitfor.deadlock_class = Global | Local | Weak

let deadlock_class_string = Waitfor.deadlock_class_string

type deadlock_info = {
  d_cycle : int;
  d_class : deadlock_class;
  d_blocked : blocked_info list;
  d_wait_cycle : string list;
  d_occupancy : (Topology.channel * string * int) list;
}

type fate = Delivered | Dropped | Gave_up

type retry_stat = {
  t_label : string;
  t_retries : int;
  t_fate : fate;
}

type outcome =
  | All_delivered of { finished_at : int; messages : message_result list }
  | Deadlock of deadlock_info
  | Cutoff of { at : int; messages : message_result list }
  | Recovered of {
      finished_at : int;
      messages : message_result list;
      stats : retry_stat list;
    }

type snapshot = {
  s_cycle : int;
  s_occupancy : (Topology.channel * string * int) list;
  s_waiting : (string * Topology.channel * string option) list;
  s_moved : bool;
}

(* how the header picks its next channel, and the key of the compiled-kernel
   memo; callers choose it through [run] or [run_adaptive] *)
type policy = Oblivious of Routing.t | Adaptive of Adaptive.t

let is_deadlock = function
  | Deadlock _ -> true
  | All_delivered _ | Cutoff _ | Recovered _ -> false

(* -- struct-of-arrays message state --

   The kernel keeps no per-message records: every field lives in a flat
   parallel array indexed by schedule position, so the steady cycle is
   index loops over unboxed ints with zero allocation.  Sentinel
   encodings: [-1] for "none" in channel/cycle-valued fields
   ([head_] -1 = not injected, [injected_at_]/[delivered_at_] -1 = never,
   [awarded_]/[wait_edge_] -1 = no channel), [max_int] for the adaptive
   "not waiting" wait_since, and fates as small ints below.  [wait_edge_]
   is the one wait-for column of both kernels: the channel an oblivious
   message requests and has not won, or the first option an adaptive
   claimant advertises after winning nothing; next to [owner] it is the
   live wait-for graph.
   Booleans sit in {!Bitset}s ([arrived_], [hold_fresh_]) or a byte row
   ([progressed_], written for every live message every cycle).  Jagged
   rows ([path_], [occ_], [holds_], [forced_]) are plain int arrays
   replaced wholesale on reroute and grown by doubling when an adaptive
   header carves. *)

(* fate encoding for [fate_] *)
let f_live = 0

let f_dropped = 1

let f_gave_up = 2

(* physically-unique sentinel row marking a not-yet-memoized adaptive
   option set; compared with [!=] *)
let unset_row : int array = [| -1 |]
(* Process-wide count of simulation runs started, for throughput reporting
   (runs/sec in the campaign timing table).  Atomic: runs happen on every
   domain of a parallel sweep. *)
let runs_started = Atomic.make 0
let run_count () = Atomic.get runs_started

(* Runs whose results were discarded by a sweep's early cancellation
   (speculative pool work past the canonical winner).  Tracked separately
   so [run_count () - cancelled_count ()] is the exact canonical total; the
   search layer reports its cancellations here. *)
let runs_cancelled = Atomic.make 0
let note_runs_cancelled n = if n > 0 then ignore (Atomic.fetch_and_add runs_cancelled n)
let cancelled_count () = Atomic.get runs_cancelled

let outcome_string = function
  | All_delivered _ -> "all-delivered"
  | Deadlock _ -> "deadlock"
  | Cutoff _ -> "cutoff"
  | Recovered _ -> "recovered"

(* -- the compiled kernel --

   Everything a run needs that depends only on the policy is built once
   and reused by every later run on the same policy in the same domain:

   (a) oblivious path rows per (src, dst), walked and validated lazily on
       first use.  A row is cached only once the walk succeeded and the
       duplicate-channel check passed; routing errors are not cached, so a
       bad pair re-walks and reports the same message on every run.  The
       rows are SHARED by all later runs, so an oblivious [path_.(j)] is
       never written in place: reroute replaces the row wholesale, and
       only adaptive carving appends, into per-message rows the arena owns
       ([carve] asserts this);
   (b) the channel-sized columns and scratch rows, and the adaptive option
       rows keyed by (channel, destination node);
   (c) the message-indexed arena, grown geometrically, for schedules of
       up to [pooled_limit] messages;
   (d) the [Priority] rank map of the previous run, reused when the order
       list and the label sequence are physically the same.

   The memo is one slot per domain ([Domain.DLS]) keyed by the physical
   identity of the policy's routing ([==]), so parallel sweeps never share
   a kernel, and a run stays a pure function of (policy, schedule,
   config): every field a run reads is reset at entry, over the prefix it
   uses, before the first cycle.  Nothing is reset on exit, so a run that
   raises (a probe, a sink, the sanitizer) leaves nothing behind that the
   next run could see.  A run that starts while the slot's kernel is busy
   -- [run] called from inside a probe -- compiles a private kernel. *)

type msgs = {
  m_cap : int;
  specs : Schedule.message_spec array;
  len_ : int array;
  dst_ : int array;
  path_ : int array array;
  occ_ : int array array;
  holds_ : int array array;
  plen_ : int array;
  head_ : int array;
  arrived_ : Bitset.t;
  injected_ : int array;
  consumed_ : int array;
  hold_ : int array;
  hold_fresh_ : Bitset.t;
  injected_at_ : int array;
  delivered_at_ : int array;
  released_ : int array;
  attempt_ : int array;
  retries_ : int array;
  fate_ : int array;
  last_progress_ : int array;
  progressed_ : Bytes.t;
  wait_since_ : int array;
  awarded_ : int array;
  wait_edge_ : int array;
  forced_ : int array array;
  rank_of : int array;
  rank_labels : string array;  (* (d): the labels [rank_of] was computed for, *)
  mutable rank_order : string list option;  (* ... the order list, *)
  mutable rank_n : int;  (* ... and the message count *)
  live : int array;
  (* adaptive only (empty in oblivious kernels) *)
  inject_opts : int array array;
  carved_mark : Bytes.t array;
  opt_tag_ : int array;
  first_opt_ : int array;
  opt_row_ : int array array;
  opt_h_ : int array;
  claim_order : int array;
}

type kernel = {
  k_policy : policy;  (* the memo key, compared physically *)
  k_nchan : int;
  k_nnodes : int;
  k_oblivious : bool;
  mutable k_busy : bool;
  k_rows : int array array;  (* (a): src * nnodes + dst, [unset_row] until walked *)
  mutable k_zero_row : int array;  (* shared all-zero holds row, as long as any cached path *)
  k_no_faults : Fault.compiled;
  k_owner : int array;
  k_cap : int array;
  k_req_stamp : int array;
  k_req_list : int array;
  k_cand_j : int array;
  k_cand_since : int array;
  k_cand_rank : int array;
  k_hold_scratch : int array;
  k_chan_dst : int array;
  k_opt_rows : int array array;  (* adaptive: channel * nnodes + dst *)
  k_inject_rows : int array array;  (* adaptive: src * nnodes + dst *)
  mutable k_msgs : msgs;
}

(* Memo tables are indexed by node or channel times node; past this many
   entries a kernel walks routes and option sets uncached instead. *)
let max_memo_entries = 1 lsl 22

let dummy_spec = Schedule.message "" 0 1

let make_msgs ~oblivious ~nchan cap =
  let an = if oblivious then 0 else cap in
  {
    m_cap = cap;
    specs = Array.make cap dummy_spec;
    len_ = Array.make cap 0;
    dst_ = Array.make cap 0;
    path_ = Array.make cap [||];
    occ_ = Array.make cap [||];
    holds_ = Array.make cap [||];
    plen_ = Array.make cap 0;
    head_ = Array.make cap (-1);
    arrived_ = Bitset.create cap;
    injected_ = Array.make cap 0;
    consumed_ = Array.make cap 0;
    hold_ = Array.make cap 0;
    hold_fresh_ = Bitset.create cap;
    injected_at_ = Array.make cap (-1);
    delivered_at_ = Array.make cap (-1);
    released_ = Array.make cap 0;
    attempt_ = Array.make cap 0;
    retries_ = Array.make cap 0;
    fate_ = Array.make cap f_live;
    last_progress_ = Array.make cap 0;
    progressed_ = Bytes.make cap '\000';
    wait_since_ = Array.make cap 0;
    awarded_ = Array.make cap (-1);
    wait_edge_ = Array.make cap (-1);
    forced_ = Array.make cap [||];
    rank_of = Array.make cap 0;
    rank_labels = Array.make cap "";
    rank_order = None;
    rank_n = 0;
    live = Array.make cap 0;
    inject_opts = Array.make an [||];
    carved_mark = Array.init an (fun _ -> Bytes.make (max nchan 1) '\000');
    opt_tag_ = Array.make an (-1);
    first_opt_ = Array.make an (-1);
    opt_row_ = Array.make an unset_row;
    opt_h_ = Array.make an min_int;
    claim_order = Array.make an 0;
  }

let compile policy =
  let topo, oblivious =
    match policy with
    | Oblivious rt -> (Routing.topology rt, true)
    | Adaptive ad -> (Adaptive.topology ad, false)
  in
  let nchan = Topology.num_channels topo and nnodes = Topology.num_nodes topo in
  let col n v = Array.make (if oblivious then n else 0) v in
  let memo n = Array.make (if n <= max_memo_entries then n else 0) unset_row in
  {
    k_policy = policy;
    k_nchan = nchan;
    k_nnodes = nnodes;
    k_oblivious = oblivious;
    k_busy = false;
    k_rows = (if oblivious then memo (nnodes * nnodes) else [||]);
    k_zero_row = [||];
    k_no_faults = Fault.compile ~nchan Fault.empty;
    k_owner = Array.make nchan (-1);
    k_cap = Array.make (max nchan 1) 1;
    k_req_stamp = col nchan (-1);
    k_req_list = col nchan 0;
    k_cand_j = col nchan (-1);
    k_cand_since = col nchan 0;
    k_cand_rank = col nchan 0;
    k_hold_scratch = col nchan 0;
    k_chan_dst = (if oblivious then [||] else Array.init nchan (Topology.dst topo));
    k_opt_rows = (if oblivious then [||] else memo (nchan * nnodes));
    k_inject_rows = (if oblivious then [||] else memo (nnodes * nnodes));
    k_msgs = make_msgs ~oblivious ~nchan 8;
  }

(* A schedule of at most [pooled_limit] messages runs in the kernel's
   arena, on the memo's shared route rows.  A larger one gets a fresh arena
   and private copies of its rows, laid out in schedule order: its run is
   long, so the setup cost does not matter, while route and occupancy rows
   left scattered through the heap by earlier runs made the steady cycle
   (which walks messages in schedule order) up to a quarter slower on the
   saturated 16x16 mesh. *)
let pooled_limit = 256

let arena k nmsg =
  let m = k.k_msgs in
  if nmsg <= m.m_cap then m
  else if nmsg > pooled_limit then make_msgs ~oblivious:k.k_oblivious ~nchan:k.k_nchan nmsg
  else begin
    let cap = min pooled_limit (max nmsg (2 * m.m_cap)) in
    let m = make_msgs ~oblivious:k.k_oblivious ~nchan:k.k_nchan cap in
    k.k_msgs <- m;
    m
  end

let kernel_slot : kernel option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let same_policy a b =
  match (a, b) with
  | Oblivious x, Oblivious y -> x == y
  | Adaptive x, Adaptive y -> x == y
  | (Oblivious _ | Adaptive _), _ -> false

let acquire policy =
  let slot = Domain.DLS.get kernel_slot in
  match !slot with
  | Some k when k.k_busy -> compile policy
  | Some k when same_policy k.k_policy policy -> k
  | Some _ | None ->
    let k = compile policy in
    slot := Some k;
    k

(* slot of the pair (a, b) in a memo table of [a * n + b] entries; -1 when
   the pair is out of range or the table was not allocated (too large), in
   which case the caller computes uncached *)
let memo_index memo n a b =
  let i = (a * n) + b in
  if a >= 0 && b >= 0 && b < n && i < Array.length memo then i else -1

(* oblivious route row of message [m] from the kernel's memo, walking and
   validating the routing on first use *)
let path_row k rt (m : Schedule.message_spec) =
  let i = memo_index k.k_rows k.k_nnodes m.Schedule.ms_src m.Schedule.ms_dst in
  let r = if i >= 0 then k.k_rows.(i) else unset_row in
  if r != unset_row then Ok r
  else
    match Schedule.route_row rt m with
    | Error _ as e -> e
    | Ok r as ok ->
      if i >= 0 then begin
        k.k_rows.(i) <- r;
        if Array.length r > Array.length k.k_zero_row then
          k.k_zero_row <- Array.make (Array.length r) 0
      end;
      ok

(* adaptive option row of [input] toward [d], memoized at slot [i] *)
let option_row memo i ad input d =
  let r = if i >= 0 then memo.(i) else unset_row in
  if r != unset_row then r
  else begin
    let row = Array.of_list (Adaptive.options ad input d) in
    if i >= 0 then memo.(i) <- row;
    row
  end

(* -- event constructors, one per repeated kind, and the occupancy rows of a
   snapshot or witness.  Top-level functions over the arena rather than
   per-run closures, so a run that emits nothing allocates nothing for
   them. -- *)

let flit_event t (ar : msgs) j channel kind =
  Obs_event.Flit { cycle = t; label = ar.specs.(j).Schedule.ms_label; channel; kind }

(* [max_int] is the adaptive "not waiting" stamp; an oblivious wait stamp
   is always a cycle *)
let wait_drop_event t (ar : msgs) j channel =
  let since = ar.wait_since_.(j) in
  Obs_event.Wait_drop
    { cycle = t; label = ar.specs.(j).Schedule.ms_label; channel;
      waited = (if since = max_int then 0 else t - since) }

let wait_add_event t (ar : msgs) owner j channel =
  let o = owner.(channel) in
  Obs_event.Wait_add
    { cycle = t; label = ar.specs.(j).Schedule.ms_label; channel;
      holder = (if o >= 0 then Some ar.specs.(o).Schedule.ms_label else None) }

(* (channel, label, buffered flits) of every non-empty buffer of the first
   [nmsg] messages, sorted *)
let occupancy (ar : msgs) nmsg =
  let acc = ref [] in
  for j = 0 to nmsg - 1 do
    let path = ar.path_.(j) and occ = ar.occ_.(j) in
    for i = 0 to ar.plen_.(j) - 1 do
      if occ.(i) > 0 then acc := (path.(i), ar.specs.(j).Schedule.ms_label, occ.(i)) :: !acc
    done
  done;
  List.sort compare !acc

let run_on k ?(config = default_config) ?probe ?sanitizer ?obs ?stats policy sched =
  let oblivious = k.k_oblivious in
  let caller = if oblivious then "Engine.run: " else "Engine.run_adaptive: " in
  let inv msg = invalid_arg (caller ^ msg) in
  let topo =
    match policy with
    | Oblivious rt -> Routing.topology rt
    | Adaptive ad -> Adaptive.topology ad
  in
  let algo_name =
    match policy with Oblivious rt -> Routing.name rt | Adaptive ad -> Adaptive.name ad
  in
  if config.buffer_capacity < 1 then inv "buffer_capacity < 1";
  if config.max_cycles < 1 then inv "max_cycles < 1";
  (* effective discipline: adaptive runs always switch wormhole (carved
     routes have no fixed packet staging point); oblivious runs honor the
     process-wide override, provisioned by [with_discipline] (the
     override's point is re-running wormhole-provisioned campaigns), then
     the config.  An explicit SAF config must provision whole-packet
     buffers itself (validated below, lint E047). *)
  let config =
    match Atomic.get discipline_override_cell with
    | Some d when oblivious -> with_discipline d config sched
    | Some _ | None -> config
  in
  let discipline = if oblivious then config.discipline else Wormhole in
  let cap = config.buffer_capacity in
  (match config.recovery with
  | None -> ()
  | Some r ->
    (match r.trigger with
    | Watchdog w -> if w < 1 then inv "recovery watchdog < 1"
    | Detect c ->
      if c.Obs_detect.bound < 1 then inv "recovery detect bound < 1";
      if c.Obs_detect.backstop < 1 then inv "recovery detect backstop < 1");
    if r.retry_limit < 0 then inv "recovery retry_limit < 0";
    if r.backoff < 1 then inv "recovery backoff < 1";
    (match r.reroute with
    | Some rt' when Routing.topology rt' != topo ->
      inv "recovery reroute built on a different topology"
    | Some _ | None -> ()));
  let nchan = k.k_nchan in
  (* ---- flat message state (see the struct-of-arrays note above), drawn
     from the kernel's arena and reset over the [nmsg] prefix below ---- *)
  let nmsg = List.length sched in
  let ({ specs; len_; dst_; path_; occ_; holds_; plen_; head_; arrived_; injected_;
         consumed_; hold_; hold_fresh_; injected_at_; delivered_at_; released_; attempt_;
         retries_; fate_; last_progress_; progressed_; wait_since_; awarded_; wait_edge_;
         forced_; rank_of; rank_labels; live; inject_opts; carved_mark; opt_tag_;
         first_opt_; opt_row_; opt_h_; claim_order; _ } as ar : msgs) =
    arena k nmsg
  in
  let pooled = ar == k.k_msgs in
  List.iteri (fun j s -> specs.(j) <- s) sched;
  let label j = specs.(j).Schedule.ms_label in
  (* validation, with the wording of {!Schedule.validate_paths}: labels,
     then message by message the static checks and the route.  Adaptive
     runs make the same static checks (their holds are ignored, yet still
     malformed when negative or off the topology) but no routability check:
     an adaptive function's coverage is {!Adaptive.validate}'s concern. *)
  if Schedule.has_duplicate_label sched then inv "duplicate message labels";
  for j = 0 to nmsg - 1 do
    let s = specs.(j) in
    (match Schedule.message_error ~nchan s with Some e -> inv e | None -> ());
    match policy with
    | Oblivious rt -> ( match path_row k rt s with Ok r -> path_.(j) <- r | Error e -> inv e)
    | Adaptive _ -> ()
  done;
  (match discipline with
  | Store_and_forward ->
    List.iter
      (fun (m : Schedule.message_spec) ->
        if m.ms_length > cap then inv "store-and-forward needs buffer_capacity >= message length")
      sched
  | Wormhole | Virtual_cut_through -> ());
  let faults =
    if Fault.is_empty config.faults then k.k_no_faults else Fault.compile ~nchan config.faults
  in
  (* per-channel buffer-capacity column (SoA).  Wormhole and SAF fill it
     with the scalar capacity; virtual cut-through provisions every channel
     for the longest scheduled packet, which is exactly what makes a
     blocked message compress into its head channel and free the upstream
     ones (cut-through = wormhole + whole-packet buffers in this
     channel-queue model; see DESIGN.md section 17). *)
  let chan_cap =
    match discipline with
    | Virtual_cut_through -> max cap (Schedule.max_length sched)
    | Wormhole | Store_and_forward -> cap
  in
  let cap_ = k.k_cap in
  Array.fill cap_ 0 (Array.length cap_) chan_cap;
  Atomic.incr runs_started;
  (* -- observability: every emission site is guarded by [obs_on], so a
        run with neither a sink nor a detector builds no events.  Emission
        is pure observation -- the run takes identical decisions with any
        sink attached (QCheck-checked in test_obs). -- *)
  (* -- online detection: a [Detect] trigger instantiates the detector and
        forces event construction for this run (the detector IS engine
        semantics, so unlike user sinks its cost is accepted when chosen);
        with [Watchdog] and no sink, the hot path stays event-free. -- *)
  let det =
    match config.recovery with
    | Some { trigger = Detect dcfg; _ } -> Some (Obs_detect.create dcfg)
    | Some { trigger = Watchdog _; _ } | None -> None
  in
  let obs_on = obs <> None || det <> None in
  let emit e =
    (match det with Some d -> Obs_detect.feed d e | None -> ());
    match obs with Some s -> s.Obs_event.emit e | None -> ()
  in
  if obs_on then begin
    emit
      (Obs_event.Run_start
         { engine = (if oblivious then "oblivious" else "adaptive");
           algorithm = algo_name; messages = nmsg });
    List.iter
      (fun (ev : Fault.event) ->
        emit
          (match ev with
          | Fault.Link_failure { channel; at } ->
            Obs_event.Fault
              { cycle = at; kind = Obs_event.Planned_failure; channel = Some channel;
                label = None; duration = 0 }
          | Fault.Transient_stall { channel; at; duration } ->
            Obs_event.Fault
              { cycle = at; kind = Obs_event.Planned_stall; channel = Some channel;
                label = None; duration }
          | Fault.Message_drop { label; at } ->
            Obs_event.Fault
              { cycle = at; kind = Obs_event.Planned_drop; channel = None;
                label = Some label; duration = 0 }))
      (Fault.events config.faults)
  end;
  let have_faults = not (Fault.is_empty config.faults) in
  (* -- telemetry: hoist the stats accumulator once per run.  An explicit
        [?stats] wins; otherwise an armed process ({!Obs_stats.arm}) gets a
        private accumulator whose scalar totals fold into the global armed
        counters at run end.  Every accumulation site is guarded by
        [stats_on], so a disarmed run pays one [Atomic.get] here plus a
        never-taken branch per site -- and like event sinks, stats are
        pure observation (QCheck-checked in test_stats). -- *)
  let stats_auto =
    match stats with None -> Obs_stats.armed () | Some _ -> false
  in
  let st =
    match stats with
    | Some st -> st
    | None -> if stats_auto then Obs_stats.create ~nchan else Obs_stats.none
  in
  let stats_on = stats_auto || (match stats with Some _ -> true | None -> false) in
  if stats_on then begin
    if st.Obs_stats.st_nchan <> nchan then
      inv "stats accumulator sized for a different topology";
    st.Obs_stats.st_runs <- st.Obs_stats.st_runs + 1;
    let di =
      match discipline with
      | Wormhole -> 0
      | Virtual_cut_through -> 1
      | Store_and_forward -> 2
    in
    st.Obs_stats.st_disc_runs.(di) <- st.Obs_stats.st_disc_runs.(di) + 1
  end;
  (* A schedule's holds are an assoc list keyed by channel; they are
     resolved to a per-path-position array through a channel-indexed
     scratch row (cleared after each use), replacing the old per-position
     [List.assoc_opt] scan.  Messages without holds share the kernel's
     all-zero row: hold rows are only ever read. *)
  let hold_scratch = k.k_hold_scratch in
  Array.fill hold_scratch 0 (Array.length hold_scratch) 0;
  let holds_for_path (spec : Schedule.message_spec) path =
    match spec.Schedule.ms_holds with
    | [] ->
      if Array.length path <= Array.length k.k_zero_row then k.k_zero_row
      else Array.make (Array.length path) 0
    | hs ->
      (* write later bindings first so the earliest binding for a channel
         wins, exactly as [List.assoc_opt] resolved duplicates *)
      List.iter (fun (c, h) -> hold_scratch.(c) <- h) (List.rev hs);
      let r = Array.map (fun c -> hold_scratch.(c)) path in
      List.iter (fun (c, _) -> hold_scratch.(c) <- 0) hs;
      r
  in
  (* reset the message prefix of the arena *)
  Bitset.clear arrived_;
  Bitset.clear hold_fresh_;
  for j = 0 to nmsg - 1 do
    let s = specs.(j) in
    len_.(j) <- s.Schedule.ms_length;
    dst_.(j) <- s.Schedule.ms_dst;
    if oblivious then begin
      (* a fresh arena takes private copies of the shared rows, each next
         to its occupancy row, in schedule order *)
      if not pooled then path_.(j) <- Array.copy path_.(j);
      let p = Array.length path_.(j) in
      plen_.(j) <- p;
      if Array.length occ_.(j) < p then occ_.(j) <- Array.make p 0
      else Array.fill occ_.(j) 0 p 0;
      holds_.(j) <- holds_for_path s path_.(j)
    end
    else plen_.(j) <- 0;
    head_.(j) <- -1;
    injected_.(j) <- 0;
    consumed_.(j) <- 0;
    hold_.(j) <- 0;
    injected_at_.(j) <- -1;
    delivered_at_.(j) <- -1;
    released_.(j) <- 0;
    attempt_.(j) <- s.Schedule.ms_inject_at;
    retries_.(j) <- 0;
    fate_.(j) <- f_live;
    last_progress_.(j) <- 0;
    wait_since_.(j) <- (if oblivious then 0 else max_int);
    awarded_.(j) <- -1;
    wait_edge_.(j) <- -1;
    forced_.(j) <- [||];
    live.(j) <- j
  done;
  let owner = k.k_owner in
  Array.fill owner 0 nchan (-1);
  (* arbitration rank per schedule position.  The priority variant used to
     build a per-run Hashtbl and hash every label; a sorted index over the
     order list with a leftmost binary search gives the same
     first-occurrence rank without it.  The map depends only on the order
     list and the label sequence, so a sweep that passes the physically
     same list and labels run after run ({!Explorer}) reuses it. *)
  (match config.arbitration with
  | Fifo ->
    ar.rank_order <- None;
    for j = 0 to nmsg - 1 do
      rank_of.(j) <- j
    done
  | Priority order ->
    let same =
      match ar.rank_order with
      | Some o when o == order && ar.rank_n = nmsg ->
        let ok = ref true in
        for j = 0 to nmsg - 1 do
          if rank_labels.(j) != label j then ok := false
        done;
        !ok
      | Some _ | None -> false
    in
    if not same then begin
      let ord = Array.of_list order in
      let n = Array.length ord in
      let sorted = Array.init n (fun i -> i) in
      Array.sort
        (fun a b -> match compare ord.(a) ord.(b) with 0 -> compare a b | c -> c)
        sorted;
      let find l =
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if ord.(sorted.(mid)) < l then lo := mid + 1 else hi := mid
        done;
        if !lo < n && ord.(sorted.(!lo)) = l then sorted.(!lo) else n
      in
      for j = 0 to nmsg - 1 do
        rank_of.(j) <- (find (label j) * nmsg) + j;
        rank_labels.(j) <- label j
      done;
      ar.rank_order <- Some order;
      ar.rank_n <- nmsg
    end);
  (* adaptive option sets: the raw option row of a (channel, destination)
     pair is memoized in the kernel as an int array on first touch -- the
     steady cycle then only filters it in place (down / owned /
     already-carved checks) without allocating.  Inject-state options are
     memoized per (source, destination) the same way. *)
  let ad_opt = match policy with Adaptive ad -> Some ad | Oblivious _ -> None in
  let nnodes = k.k_nnodes in
  (match ad_opt with
  | None -> ()
  | Some ad ->
    for j = 0 to nmsg - 1 do
      let s = specs.(j).Schedule.ms_src and d = dst_.(j) in
      inject_opts.(j) <-
        option_row k.k_inject_rows (memo_index k.k_inject_rows nnodes s d) ad (Routing.Inject s) d;
      (* per-message carved-channel membership, one byte per channel:
         [carve] sets, [drain] clears, and the claim filter's "not already
         on my carved path" test becomes a single load instead of an
         O(carved length) rescan *)
      Bytes.fill carved_mark.(j) 0 (Bytes.length carved_mark.(j)) '\000';
      opt_tag_.(j) <- -1;
      first_opt_.(j) <- -1;
      opt_row_.(j) <- unset_row;
      opt_h_.(j) <- min_int
    done);
  let opt_rows = k.k_opt_rows in
  let chan_dst_ = k.k_chan_dst in
  let row_get c d =
    let ad = match ad_opt with Some ad -> ad | None -> assert false in
    option_row opt_rows (memo_index opt_rows nnodes c d) ad (Routing.From c) d
  in
  (* per-cycle scratch, reused across cycles -- nothing here is allocated
     inside the steady loop.  Oblivious: [req_stamp.(c) = t] marks channel
     [c] as requested this cycle, [req_list] keeps the channels in
     first-request order, and [cand_*] track the per-channel best waiter
     (min over the unique (wait_since, rank) key) during registration, so
     the award pass is O(requested channels) instead of the old
     O(requests x messages) rescan.  Adaptive: the option-source tag and
     first usable option per message, plus the claimant order.  [opt_h_]
     is the head position for which [opt_tag_]/[opt_row_] are currently
     valid: on a fault-free run a header that failed to move re-registers
     with the exact same tag, row and first option next cycle, so the
     recomputation (forced-row reads, row lookup, down-filter rescan) is
     skipped while a worm is parked.  [min_int] = invalid; [drain] resets
     it because a retry carves a fresh path through the same head
     positions. *)
  let req_stamp = k.k_req_stamp in
  Array.fill req_stamp 0 (Array.length req_stamp) (-1);
  let req_list = k.k_req_list in
  let req_count = ref 0 in
  let cand_j = k.k_cand_j in
  let cand_since = k.k_cand_since in
  let cand_rank = k.k_cand_rank in
  let claim_count = ref 0 in
  (* pre-allocated cursors for the inner scans below: OCaml refs are heap
     blocks, so hot helpers share these per-run cells instead of minting
     fresh ones every call *)
  let scan_found = ref (-1) in
  let scan_flag = ref false in
  let ins_b = ref 0 in
  let rel_i = ref 0 in
  (* live-message index list in schedule order; delivered and abandoned
     messages are compacted out at end of cycle so steady-state loops only
     touch in-flight work *)
  let nlive = ref nmsg in
  let last_finished = ref 0 in
  (* With no recovery configured the attempt windows never move, and the
     workload generators emit messages in injection-time order: the
     pre-window messages are then exactly a suffix of the (index-sorted)
     live list, so each cycle's hot loops can stop at a cutoff instead of
     re-testing every sleeping source.  Recovery (attempt windows move on
     abort) or a hand-written out-of-order schedule falls back to the
     per-message window test over the whole live list. *)
  let static_windows =
    (match config.recovery with None -> true | Some _ -> false)
    && (let ok = ref true in
        for j = 1 to nmsg - 1 do
          if attempt_.(j) < attempt_.(j - 1) then ok := false
        done;
        !ok)
  in
  let awake_n = ref 0 in
  let bs_lo = ref 0 and bs_hi = ref 0 in
  let moved = ref false in
  let finished = ref 0 in
  (* any fault fired or recovery action taken: the run reports [Recovered] *)
  let perturbed = ref false in
  let cyc_opt v = if v < 0 then None else Some v in
  let results () =
    List.init nmsg (fun j ->
        { r_label = label j; r_injected_at = cyc_opt injected_at_.(j);
          r_delivered_at = cyc_opt delivered_at_.(j) })
  in
  let stats () =
    List.init nmsg (fun j ->
        {
          t_label = label j;
          t_retries = retries_.(j);
          t_fate =
            (if fate_.(j) = f_dropped then Dropped
             else if fate_.(j) = f_gave_up then Gave_up
             else Delivered);
        })
  in
  let active j = delivered_at_.(j) < 0 && fate_.(j) = f_live in
  (* wormhole and cut-through headers advance as soon as possible; a
     store-and-forward header only requests the next channel once the whole
     packet is staged in its current one *)
  let header_eager =
    match discipline with
    | Wormhole | Virtual_cut_through -> true
    | Store_and_forward -> false
  in
  (* append channel [c] to an adaptive message's carved path (amortized
     doubling; [occ] grows in lockstep) *)
  let carve j c =
    (* only adaptive rows grow in place: oblivious rows are the kernel's
       shared path memo *)
    assert (not oblivious);
    let path = path_.(j) in
    let n = Array.length path in
    if plen_.(j) = n then begin
      let n' = max 4 (2 * n) in
      let path' = Array.make n' 0 and occ' = Array.make n' 0 in
      Array.blit path 0 path' 0 n;
      Array.blit occ_.(j) 0 occ' 0 n;
      path_.(j) <- path';
      occ_.(j) <- occ'
    end;
    path_.(j).(plen_.(j)) <- c;
    occ_.(j).(plen_.(j)) <- 0;
    plen_.(j) <- plen_.(j) + 1;
    Bytes.unsafe_set carved_mark.(j) c '\001'
  in
  (* oblivious: the fixed next channel, -1 for "wants nothing".  The
     store-and-forward whole-packet check ([assembled] of old) is folded in
     behind the hoisted [header_eager] test. *)
  let wanted_chan j =
    if not (active j) then -1
    else begin
      let h = head_.(j) in
      if h = -1 then path_.(j).(0)
      else if
        h < plen_.(j) - 1 && hold_.(j) = 0 && (header_eager || occ_.(j).(h) = len_.(j))
      then path_.(j).(h + 1)
      else -1
    end
  in
  let set_hold j pos =
    let h = holds_.(j).(pos) in
    hold_.(j) <- h;
    if h > 0 then Bitset.unsafe_add hold_fresh_ j else Bitset.unsafe_remove hold_fresh_ j
  in
  let on_carved j c = Bytes.unsafe_get carved_mark.(j) c <> '\000' in
  (* adaptive: classify the header's current option source into [opt_tag_]
     and return its first usable option, -1 when the filtered set is empty,
     without allocating.  Tags: -1 = no options (inactive, arrived,
     fault-pinned or source-side before its attempt window); -2 =
     forced-next (reroute pin, the single channel
     [forced_.(j).(plen_.(j))]); -3 = inject options; otherwise the head
     channel whose (channel, destination) row applies.  A row tag also
     caches its row in [opt_row_].  Channels that are down are not offered:
     adaptive routing steers around faults by construction.  Rows are tiny
     (node degree), so a reverse full scan into the shared cursor stays
     cheap and closure-free. *)
  let register_opts j t =
    if not (active j) then begin opt_tag_.(j) <- -1; -1 end
    else begin
      let h = head_.(j) in
      (* [h >= plen] is exactly the arrived state (the header was consumed
         at the destination), checked here without touching the bitset *)
      if h >= plen_.(j) && h >= 0 then begin opt_tag_.(j) <- -1; -1 end
      else if (not have_faults) && h >= 0 && opt_h_.(j) = h then begin
        (* memoized: the head has not moved since the tag/row were
           computed, and with no faults the down-filter is static, so the
           first usable option is simply the row's first entry *)
        let tag = opt_tag_.(j) in
        if tag = -1 then -1
        else if tag = -2 then forced_.(j).(plen_.(j))
        else begin
          let row = opt_row_.(j) in
          if Array.length row = 0 then -1 else Array.unsafe_get row 0
        end
      end
      else begin
        let forced = forced_.(j) in
        let nf = Array.length forced in
        if h = -1 then begin
          if injected_.(j) <> 0 || t < attempt_.(j) then begin opt_tag_.(j) <- -1; -1 end
          else if nf > 0 then
            if plen_.(j) < nf then begin
              opt_tag_.(j) <- -2;
              let c = forced.(plen_.(j)) in
              if have_faults && Fault.down faults c t then -1 else c
            end
            else begin opt_tag_.(j) <- -1; -1 end
          else begin
            opt_tag_.(j) <- -3;
            let row = inject_opts.(j) in
            opt_row_.(j) <- row;
            scan_found := -1;
            for i = Array.length row - 1 downto 0 do
              let c = Array.unsafe_get row i in
              if not (have_faults && Fault.down faults c t) then scan_found := c
            done;
            !scan_found
          end
        end
        else begin
          let hc = path_.(j).(h) in
          opt_h_.(j) <- h;
          (* the header cannot leave a down channel, so don't let it claim
             the next one either: an award always implies the hop completes *)
          if (have_faults && Fault.down faults hc t) || chan_dst_.(hc) = dst_.(j) then begin
            opt_tag_.(j) <- -1; -1
          end
          else if nf > 0 then
            if plen_.(j) < nf then begin
              opt_tag_.(j) <- -2;
              let c = forced.(plen_.(j)) in
              if have_faults && Fault.down faults c t then -1 else c
            end
            else begin opt_tag_.(j) <- -1; -1 end
          else begin
            opt_tag_.(j) <- hc;
            let row = row_get hc dst_.(j) in
            opt_row_.(j) <- row;
            scan_found := -1;
            for i = Array.length row - 1 downto 0 do
              let c = Array.unsafe_get row i in
              if not (have_faults && Fault.down faults c t) then scan_found := c
            done;
            !scan_found
          end
        end
      end
    end
  in
  (* the claim a sorted claimant actually takes: first option that is up,
     unowned and not already on the carved path; -1 when none *)
  let claim_pick j tag t =
    if tag = -2 then begin
      let c = forced_.(j).(plen_.(j)) in
      if (not (have_faults && Fault.down faults c t)) && owner.(c) = -1 && not (on_carved j c) then c else -1
    end
    else begin
      (* the row was cached by [register_opts] when this claimant registered *)
      let row = opt_row_.(j) in
      scan_found := -1;
      for i = Array.length row - 1 downto 0 do
        let c = Array.unsafe_get row i in
        if (not (have_faults && Fault.down faults c t)) && owner.(c) = -1 && not (on_carved j c)
        then scan_found := c
      done;
      !scan_found
    end
  in
  (* first channel the header is blocked on, mode-dispatched: used by the
     probe snapshot and the deadlock witness.  Refreshing the adaptive
     option cache here is safe: both run at the end of the cycle, after
     every claim, and the next registration either recomputes the cache or
     reuses the memo keyed by the same head position. *)
  let first_want_chan j t = if oblivious then wanted_chan j else register_opts j t in
  (* -- sanitizer: re-derive the structural invariants from the full state
        at the end of every cycle (see Sanitizer's doc for the code table).
        Pure observation; a sanitized run takes the same decisions. -- *)
  let sanitizer = match sanitizer with Some s -> Some s | None -> Sanitizer.current () in
  (* oblivious messages have a fixed route ("path position"); adaptive ones
     a carved route ("hop") -- the sanitizer wording tracks the mode *)
  let posw = if oblivious then "path position" else "hop" in
  let sanitize t =
    match sanitizer with
    | None -> ()
    | Some san ->
      Sanitizer.note_cycle san;
      let ctx = [ ("algorithm", algo_name); ("cycle", string_of_int t) ] in
      let viol code j msg =
        Sanitizer.record san
          (Diagnostic.error code (Diagnostic.Message (label j)) msg ~context:ctx)
      in
      for j = 0 to nmsg - 1 do
        let k = plen_.(j) in
        let path = path_.(j) and occ = occ_.(j) in
        let buffered = ref 0 in
        for i = 0 to k - 1 do
          let n = occ.(i) in
          buffered := !buffered + n;
          if n < 0 || n > cap_.(path.(i)) then
            viol "E102" j
              (Printf.sprintf "buffer occupancy %d outside [0, %d] at %s %d" n
                 cap_.(path.(i)) posw i);
          if n > 0 then begin
            if owner.(path.(i)) <> j then
              viol "E102" j
                (Printf.sprintf "flits buffered on %s which the message does not own"
                   (Topology.channel_name topo path.(i)));
            if i < released_.(j) || i > head_.(j) then
              viol "E103" j
                (Printf.sprintf "flits at %s %d outside the live window [%d, %d]" posw i
                   released_.(j)
                   (min head_.(j) (k - 1)))
          end
        done;
        if fate_.(j) = f_live && injected_.(j) <> consumed_.(j) + !buffered then
          viol "E101" j
            (Printf.sprintf "flit conservation broken: injected %d <> consumed %d + buffered %d"
               injected_.(j) consumed_.(j) !buffered);
        let release_bound = if Bitset.mem arrived_ j then k else max head_.(j) 0 in
        if released_.(j) < 0 || released_.(j) > release_bound then
          viol "E103" j
            (Printf.sprintf "release watermark %d outside [0, %d]" released_.(j) release_bound);
        if oblivious then begin
          if wait_edge_.(j) >= 0 then begin
            if wait_since_.(j) < 0 || wait_since_.(j) > t then
              viol "E104" j
                (Printf.sprintf "waiting for %s with seniority cycle %d outside [0, %d]"
                   (Topology.channel_name topo wait_edge_.(j))
                   wait_since_.(j) t);
            if wanted_chan j <> wait_edge_.(j) then
              viol "E104" j
                (Printf.sprintf "wait entry on %s but the message no longer wants it"
                   (Topology.channel_name topo wait_edge_.(j)))
          end
        end
        else begin
          if wait_since_.(j) <> max_int && wait_since_.(j) > t then
            viol "E104" j (Printf.sprintf "wait timestamp %d is in the future" wait_since_.(j));
          if fate_.(j) <> f_live && wait_since_.(j) <> max_int then
            viol "E104" j "abandoned message still has a wait timestamp"
        end;
        match config.recovery with
        | Some r when fate_.(j) = f_live ->
          if retries_.(j) > r.retry_limit then
            viol "E105" j
              (Printf.sprintf "live message has %d retries, over the limit %d" retries_.(j)
                 r.retry_limit);
          let w = watchdog_of r in
          if active j && t - last_progress_.(j) >= w then
            viol "E105" j
              (Printf.sprintf
                 "watchdog bound broken: no progress since cycle %d (watchdog %d)"
                 last_progress_.(j) w)
        | Some _ | None -> ()
      done;
      let on_route j c =
        let found = ref false in
        for i = 0 to plen_.(j) - 1 do
          if path_.(j).(i) = c then found := true
        done;
        !found
      in
      let held = Array.make nmsg 0 in
      Array.iteri
        (fun c own ->
          if own >= 0 then begin
            held.(own) <- held.(own) + 1;
            if not (on_route own c) then
              viol "E102" own
                (Printf.sprintf "owns %s which is not on its %s"
                   (Topology.channel_name topo c)
                   (if oblivious then "path" else "carved path"))
          end)
        owner;
      (* E106: wait-for stream consistency.  An advertised wait edge from
         a message that holds nothing is a dangling edge the online
         detector would chase into nowhere -- only a not-yet-injected
         source-side waiter may legitimately wait while holding nothing. *)
      for j = 0 to nmsg - 1 do
        let edge = wait_edge_.(j) in
        if edge >= 0 then begin
          if fate_.(j) <> f_live then
            viol "E106" j
              (Printf.sprintf "abandoned message still advertises a wait-for edge on %s"
                 (Topology.channel_name topo edge))
          else if injected_.(j) > 0 && held.(j) = 0 then
            viol "E106" j
              (Printf.sprintf "waits for %s but holds no channel"
                 (Topology.channel_name topo edge))
        end
      done
  in
  (* abort-and-drain: release every held channel, drop buffered flits, and
     return the message to its pre-injection state *)
  let drain j t =
    let path = path_.(j) in
    for i = 0 to plen_.(j) - 1 do
      let c = path.(i) in
      if owner.(c) = j then begin
        owner.(c) <- -1;
        if obs_on then
          emit (Obs_event.Channel_release { cycle = t; label = label j; channel = c })
      end
    done;
    (* retract the advertised wait-for edge: without this, a message
       aborted mid-wait leaves a dangling edge on the stream that the
       online detector would keep chasing (sanitizer E106) *)
    if obs_on && wait_edge_.(j) >= 0 then emit (wait_drop_event t ar j wait_edge_.(j));
    wait_edge_.(j) <- -1;
    if not oblivious then begin
      wait_since_.(j) <- max_int;
      plen_.(j) <- 0;  (* the carved route is forgotten; a retry carves afresh *)
      opt_h_.(j) <- min_int;  (* the memoized row belongs to the old path *)
      Bytes.fill carved_mark.(j) 0 (Bytes.length carved_mark.(j)) '\000'
    end;
    Array.fill occ_.(j) 0 (Array.length occ_.(j)) 0;
    head_.(j) <- -1;
    Bitset.unsafe_remove arrived_ j;
    injected_.(j) <- 0;
    consumed_.(j) <- 0;
    hold_.(j) <- 0;
    Bitset.unsafe_remove hold_fresh_ j;
    released_.(j) <- 0
  in
  let give_up j fate t =
    drain j t;
    fate_.(j) <- fate;
    incr finished;
    if obs_on then
      emit
        (Obs_event.Gave_up
           { cycle = t; label = label j;
             fate = (if fate = f_dropped then "dropped" else "gave-up") })
  in
  let abort_retry j (r : recovery) t ~reason =
    drain j t;
    retries_.(j) <- retries_.(j) + 1;
    if obs_on then
      emit (Obs_event.Abort { cycle = t; label = label j; retries = retries_.(j); reason });
    if retries_.(j) > r.retry_limit then give_up j f_gave_up t
    else begin
      (match r.reroute with
      | None -> ()
      | Some rt' -> (
        match Routing.path rt' specs.(j).Schedule.ms_src dst_.(j) with
        | Ok p ->
          if oblivious then begin
            path_.(j) <- Array.of_list p;
            occ_.(j) <- Array.make (Array.length path_.(j)) 0;
            holds_.(j) <- holds_for_path specs.(j) path_.(j);
            plen_.(j) <- Array.length path_.(j)
          end
          else
            (* adaptive: pin the remaining route; the retried header claims
               exactly these channels (down ones still refuse it) *)
            forced_.(j) <- Array.of_list p
        | Error _ ->
          (* the degraded network cannot deliver this pair at all *)
          give_up j f_gave_up t));
      if fate_.(j) = f_live then begin
        let delay = r.backoff * (1 lsl min (retries_.(j) - 1) 20) in
        attempt_.(j) <- t + delay;
        last_progress_.(j) <- t + delay;
        if obs_on then
          emit (Obs_event.Retry { cycle = t; label = label j; resume_at = attempt_.(j) })
      end
    end
  in
  (* one consumed flit at the destination channel [last] *)
  let consume j t last =
    consumed_.(j) <- consumed_.(j) + 1;
    moved := true;
    Bytes.unsafe_set progressed_ j '\001';
    if obs_on then emit (flit_event t ar j last Obs_event.Consume);
    if consumed_.(j) = len_.(j) then begin
      delivered_at_.(j) <- t;
      if stats_on then
        Obs_stats.observe_latency st
          (if injected_at_.(j) >= 0 then t - injected_at_.(j) else t);
      if obs_on then
        emit
          (Obs_event.Delivered
             { cycle = t; label = label j;
               latency = (if injected_at_.(j) >= 0 then t - injected_at_.(j) else t) })
    end
  in
  let cycle = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    let t = !cycle in
    moved := false;
    Bytes.fill progressed_ 0 nmsg '\000';
    (* live positions >= [nact] hold exactly the still-sleeping sources
       (see [static_windows]); the arbitration and movement loops below do
       not visit them.  The prefix test stays in each loop for the
       fallback mode and never fires in static mode. *)
    let nact =
      if not static_windows then !nlive
      else begin
        while !awake_n < nmsg && attempt_.(!awake_n) <= t do
          incr awake_n
        done;
        bs_lo := 0;
        bs_hi := !nlive;
        while !bs_lo < !bs_hi do
          let mid = (!bs_lo + !bs_hi) / 2 in
          if live.(mid) < !awake_n then bs_lo := mid + 1 else bs_hi := mid
        done;
        !bs_lo
      end
    in
    if oblivious then begin
      (* -- arbitration: register requests and track each channel's best
            waiter, then award.  A message's wait_since entry follows the
            channel it currently wants: when the want changes (progress,
            hold expiry, abort, reroute) the stale entry is dropped so
            seniority cannot leak onto a channel the message no longer
            requests.  The (wait_since, rank) key is unique per message
            (rank embeds the schedule index), so the min tracked during
            registration is scan-order independent and equals the old
            award-time rescan. -- *)
      req_count := 0;
      for li = 0 to nact - 1 do
        let j = live.(li) in
        (* a source still before its attempt window neither requests nor
           waits (its [wait_edge_] is -1 by construction: every abort drains
           the wait entry) -- skip it outright *)
        if injected_.(j) = 0 && t < attempt_.(j) then ()
        else begin
        let c = wanted_chan j in
        if
          c >= 0
          && (head_.(j) >= 0 || (injected_.(j) = 0 && t >= attempt_.(j)))
          && owner.(c) <> j
        then begin
          if wait_edge_.(j) <> c then begin
            if obs_on then begin
              if wait_edge_.(j) >= 0 then emit (wait_drop_event t ar j wait_edge_.(j));
              emit (wait_add_event t ar owner j c)
            end;
            wait_edge_.(j) <- c;
            wait_since_.(j) <- t
          end;
          (* a down channel cannot be acquired, but the waiter keeps its
             seniority for when the stall clears *)
          if not (have_faults && Fault.down faults c t) then begin
            if req_stamp.(c) <> t then begin
              req_stamp.(c) <- t;
              req_list.(!req_count) <- c;
              incr req_count;
              cand_j.(c) <- -1
            end;
            let since = wait_since_.(j) in
            let r = rank_of.(j) in
            if
              cand_j.(c) < 0 || since < cand_since.(c)
              || (since = cand_since.(c) && r < cand_rank.(c))
            then begin
              cand_j.(c) <- j;
              cand_since.(c) <- since;
              cand_rank.(c) <- r
            end
          end
        end
        else begin
          (* not requesting -- including the case where the message already
             owns the channel it wants and its hop is merely fault-deferred:
             an owner is not a waiter, so it must not keep a seniority stamp
             (the sanitizer's E104 check relies on this) *)
          if obs_on && wait_edge_.(j) >= 0 then emit (wait_drop_event t ar j wait_edge_.(j));
          wait_edge_.(j) <- -1
        end
        end
      done;
      (* awards for distinct channels are independent (an award writes only
         [owner.(c)] and the winner's own flags), so the outcome does not
         depend on the order of [req_list] *)
      for ri = 0 to !req_count - 1 do
        let c = req_list.(ri) in
        if owner.(c) = -1 && cand_j.(c) >= 0 then begin
          let j = cand_j.(c) in
          owner.(c) <- j;
          if stats_on then
            st.Obs_stats.st_acquired.(c) <- st.Obs_stats.st_acquired.(c) + 1;
          if obs_on then
            emit
              (Obs_event.Channel_acquire
                 { cycle = t; label = label j; channel = c; waited = t - cand_since.(c) });
          wait_edge_.(j) <- -1;
          Bytes.unsafe_set progressed_ j '\001';
          moved := true
        end
      done
    end
    else begin
      (* -- allocation: headers claim their first free option; earlier
            waiters first, then priority -- *)
      claim_count := 0;
      for li = 0 to nact - 1 do
        let j = live.(li) in
        (* pre-window sources have no options, no stale award and no
           advertised edge (aborts drain them): skip without touching state *)
        if injected_.(j) = 0 && t < attempt_.(j) then ()
        else begin
        awarded_.(j) <- -1;
        let fo = register_opts j t in
        first_opt_.(j) <- fo;
        if fo >= 0 then begin
          if wait_since_.(j) = max_int then wait_since_.(j) <- t;
          claim_order.(!claim_count) <- j;
          incr claim_count
        end
        else if wait_edge_.(j) >= 0 then begin
          (* the header can no longer move at all (arrived, delivered, or
             fault-pinned): its advertised edge is stale *)
          if obs_on then emit (wait_drop_event t ar j wait_edge_.(j));
          wait_edge_.(j) <- -1
        end
        end
      done;
      (* insertion sort of the claimants by (wait_since, rank): keys are
         unique (rank embeds the schedule index), so this matches a
         [List.sort] order exactly, without the per-cycle list build *)
      for a = 1 to !claim_count - 1 do
        let j = claim_order.(a) in
        let kw = wait_since_.(j) in
        let kr = rank_of.(j) in
        ins_b := a - 1;
        while
          !ins_b >= 0
          &&
          let j' = claim_order.(!ins_b) in
          let w' = wait_since_.(j') in
          w' > kw || (w' = kw && rank_of.(j') > kr)
        do
          claim_order.(!ins_b + 1) <- claim_order.(!ins_b);
          decr ins_b
        done;
        claim_order.(!ins_b + 1) <- j
      done;
      for a = 0 to !claim_count - 1 do
        let j = claim_order.(a) in
        let c = claim_pick j opt_tag_.(j) t in
        if c >= 0 then begin
          awarded_.(j) <- c;
          owner.(c) <- j;
          if stats_on then
            st.Obs_stats.st_acquired.(c) <- st.Obs_stats.st_acquired.(c) + 1;
          if obs_on then
            emit
              (Obs_event.Channel_acquire
                 { cycle = t; label = label j; channel = c;
                   waited = (if wait_since_.(j) = max_int then 0 else t - wait_since_.(j)) });
          wait_since_.(j) <- max_int;
          (* the acquisition resolves the advertised edge (Channel_acquire
             implies resolution; no Wait_drop is emitted) *)
          wait_edge_.(j) <- -1;
          Bytes.unsafe_set progressed_ j '\001';
          moved := true
        end
      done;
      (* wait-for edge maintenance: a claimant that won nothing advertises
         an edge on its first (preferred) option; when the preference moves
         the old edge is retracted before the new one appears, so the
         stream always carries at most one edge per message.  The Wait_add
         holder field is the owner after every claim of the cycle, so this
         is a separate pass after the claims. *)
      for a = 0 to !claim_count - 1 do
        let j = claim_order.(a) in
        if awarded_.(j) < 0 then begin
          let c = first_opt_.(j) in
          if c >= 0 && c <> wait_edge_.(j) then begin
            if obs_on then begin
              if wait_edge_.(j) >= 0 then emit (wait_drop_event t ar j wait_edge_.(j));
              emit (wait_add_event t ar owner j c)
            end;
            wait_edge_.(j) <- c
          end
        end
      done
    end;
    (* -- movement: per message, sweep from the front so freed slots are
          visible to the flits behind (wormhole pipelining).  A down channel
          (failed or stalled) neither accepts nor emits flits. -- *)
    for li = 0 to nact - 1 do
      let j = live.(li) in
      (* a pre-window source holds nothing, buffers nothing and may not
         inject yet: the whole sweep is a no-op for it *)
      if active j && not (injected_.(j) = 0 && t < attempt_.(j)) then begin
        (* consumption at the destination.  Oblivious: the route ends at
           the destination by construction and the last hop honors holds.
           Adaptive: the carved route may not have reached the destination
           yet, and arrival is recorded as soon as the header sits in a
           destination channel (holds are ignored). *)
        (if oblivious then begin
           let path = path_.(j) and occ = occ_.(j) in
           let k = plen_.(j) in
           if
             occ.(k - 1) > 0
             && (Bitset.unsafe_mem arrived_ j || (head_.(j) = k - 1 && hold_.(j) = 0))
             && not (have_faults && Fault.down faults path.(k - 1) t)
           then begin
             occ.(k - 1) <- occ.(k - 1) - 1;
             if head_.(j) = k - 1 then begin
               head_.(j) <- k;
               Bitset.unsafe_add arrived_ j
             end;
             consume j t path.(k - 1)
           end;
           (* header advance: hop into the fixed next channel once acquired
              (award and hop may be cycles apart) *)
           let h = head_.(j) in
           if
             h >= 0 && h < k - 1 && hold_.(j) = 0
             && owner.(path.(h + 1)) = j
             && (not (have_faults && Fault.down faults path.(h) t))
             && not (have_faults && Fault.down faults path.(h + 1) t)
           then begin
             occ.(h) <- occ.(h) - 1;
             occ.(h + 1) <- occ.(h + 1) + 1;
             head_.(j) <- h + 1;
             set_hold j (h + 1);
             moved := true;
             Bytes.unsafe_set progressed_ j '\001';
             if obs_on then emit (flit_event t ar j path.(h + 1) Obs_event.Hop)
           end
         end
         else begin
           let k = plen_.(j) in
           (* head-position test first: it misses in registers, the
              channel-destination test misses in memory *)
           if k > 0 && head_.(j) >= k - 1 then begin
             let last = path_.(j).(k - 1) in
             if chan_dst_.(last) = dst_.(j) then begin
               if head_.(j) = k - 1 then begin
                 Bitset.unsafe_add arrived_ j;
                 head_.(j) <- k
               end;
               if occ_.(j).(k - 1) > 0 && not (have_faults && Fault.down faults last t) then begin
                 occ_.(j).(k - 1) <- occ_.(j).(k - 1) - 1;
                 consume j t last
               end
             end
           end;
           (* header push into the channel claimed this very cycle (an
              award always implies the hop completes).  [carve] may replace
              the path/occ rows, so they are re-read below. *)
           if awarded_.(j) >= 0 then begin
             let c = awarded_.(j) in
             if head_.(j) = -1 then begin
               carve j c;
               occ_.(j).(0) <- 1;
               head_.(j) <- 0;
               injected_.(j) <- 1;
               injected_at_.(j) <- t;
               moved := true;
               Bytes.unsafe_set progressed_ j '\001';
               if obs_on then emit (flit_event t ar j c Obs_event.Inject)
             end
             else begin
               carve j c;
               let occ = occ_.(j) in
               let h = head_.(j) in
               occ.(h) <- occ.(h) - 1;
               occ.(h + 1) <- 1;
               head_.(j) <- h + 1;
               moved := true;
               Bytes.unsafe_set progressed_ j '\001';
               if obs_on then emit (flit_event t ar j c Obs_event.Hop)
             end
           end
         end);
        let path = path_.(j) and occ = occ_.(j) in
        let k = plen_.(j) in
        (* data flits cascade toward the header *)
        let front = min (head_.(j) - 1) (k - 2) in
        (* positions below the release watermark are empty (E103 window),
           so the sweep stops there instead of walking to 0 *)
        for i = front downto released_.(j) do
          if
            occ.(i) > 0 && occ.(i + 1) < cap_.(path.(i + 1))
            && (not (have_faults && Fault.down faults path.(i) t))
            && not (have_faults && Fault.down faults path.(i + 1) t)
          then begin
            occ.(i) <- occ.(i) - 1;
            occ.(i + 1) <- occ.(i + 1) + 1;
            moved := true;
            Bytes.unsafe_set progressed_ j '\001';
            if obs_on then emit (flit_event t ar j path.(i + 1) Obs_event.Cascade)
          end
        done;
        (* injection at the source: the header first (oblivious mode -- an
           adaptive header injects in the claim-push above), then at most
           one data flit per cycle; the header push counts as the
           injection-cycle's flit *)
        if oblivious && injected_.(j) = 0 then begin
          if owner.(path.(0)) = j && head_.(j) = -1 && not (have_faults && Fault.down faults path.(0) t)
          then begin
            occ.(0) <- 1;
            injected_.(j) <- 1;
            head_.(j) <- 0;
            injected_at_.(j) <- t;
            set_hold j 0;
            moved := true;
            Bytes.unsafe_set progressed_ j '\001';
            if obs_on then emit (flit_event t ar j path.(0) Obs_event.Inject)
          end
        end
        else if
          injected_.(j) > 0
          && injected_.(j) < len_.(j)
          && injected_at_.(j) <> t
          && occ.(0) < cap_.(path.(0))
          && owner.(path.(0)) = j
          && not (have_faults && Fault.down faults path.(0) t)
        then begin
          occ.(0) <- occ.(0) + 1;
          injected_.(j) <- injected_.(j) + 1;
          moved := true;
          Bytes.unsafe_set progressed_ j '\001';
          if obs_on then emit (flit_event t ar j path.(0) Obs_event.Inject)
        end;
        (* release: channels the whole message has passed through *)
        if injected_.(j) = len_.(j) then begin
          rel_i := released_.(j);
          let h = head_.(j) in
          scan_flag := true;
          while !scan_flag && !rel_i < k do
            let i = !rel_i in
            if occ.(i) = 0 && owner.(path.(i)) = j && (i < h || Bitset.unsafe_mem arrived_ j)
            then begin
              owner.(path.(i)) <- -1;
              moved := true;
              Bytes.unsafe_set progressed_ j '\001';
              if obs_on then
                emit
                  (Obs_event.Channel_release
                     { cycle = t; label = label j; channel = path.(i) });
              incr rel_i
            end
            else scan_flag := false
          done;
          released_.(j) <- !rel_i
        end;
        if delivered_at_.(j) = t then incr finished;
        (* hold countdown (skip the cycle the hold was set); expiry is
           progress: the header will act next cycle.  Adaptive mode never
           sets holds, so this is a no-op there. *)
        if hold_.(j) > 0 then begin
          Bytes.unsafe_set progressed_ j '\001';
          if Bitset.unsafe_mem hold_fresh_ j then Bitset.unsafe_remove hold_fresh_ j
          else begin
            hold_.(j) <- hold_.(j) - 1;
            if hold_.(j) = 0 then moved := true
          end
        end
      end
    done;
    (* -- faults and recovery: source-side drops, then the watchdog -- *)
    if have_faults then
      for li = 0 to !nlive - 1 do
        let j = live.(li) in
        if active j && injected_.(j) = 0 && Fault.dropped_now faults (label j) t then begin
          perturbed := true;
          if obs_on then
            emit
              (Obs_event.Fault
                 { cycle = t; kind = Obs_event.Drop_fired; channel = None;
                   label = Some (label j); duration = 0 });
          match config.recovery with
          | None -> give_up j f_dropped t
          | Some r -> abort_retry j r t ~reason:"drop"
        end
      done;
    (* -- online detection: end-of-cycle tick confirms quiescent wait-for
          knots; only the policy-chosen victim is aborted, so the rest of
          the knot unwinds through the freed channels instead of being
          drained wholesale like a watchdog abort. -- *)
    (match (config.recovery, det) with
    | Some r, Some d ->
      let policy_name =
        match r.trigger with
        | Detect c -> Obs_detect.victim_policy_string c.Obs_detect.policy
        | Watchdog _ -> "minimal"
      in
      List.iter
        (fun (dk : Obs_detect.detection) ->
          emit
            (Obs_event.Deadlock_detected
               { cycle = t; members = List.map fst dk.Obs_detect.dk_members;
                 channels = List.map snd dk.Obs_detect.dk_members;
                 victims = dk.Obs_detect.dk_victims });
          List.iter
            (fun v ->
              let vm = ref (-1) in
              for j = 0 to nmsg - 1 do
                if label j = v then vm := j
              done;
              let j = !vm in
              if j >= 0 && active j then begin
                perturbed := true;
                emit (Obs_event.Victim_aborted { cycle = t; label = v; policy = policy_name });
                abort_retry j r t ~reason:"deadlock"
              end)
            dk.Obs_detect.dk_victims)
        (Obs_detect.tick d ~now:t)
    | (Some _ | None), _ -> ());
    (match config.recovery with
    | None -> ()
    | Some r ->
      let w = watchdog_of r in
      for li = 0 to !nlive - 1 do
        let j = live.(li) in
        if active j then begin
          if Bytes.unsafe_get progressed_ j <> '\000' || (injected_.(j) = 0 && t < attempt_.(j))
          then last_progress_.(j) <- t
          else if t - last_progress_.(j) >= w then begin
            perturbed := true;
            abort_retry j r t ~reason:"watchdog"
          end
        end
      done);
    (* -- telemetry accumulation: plain int stores into the preallocated
          accumulator.  The head-of-line walk reuses the kernel's per-run
          scratch cursors ([scan_found]/[ins_b]/[scan_flag] are free at end
          of cycle), so a stats-armed steady cycle allocates nothing. -- *)
    if stats_on then begin
      st.Obs_stats.st_cycles <- st.Obs_stats.st_cycles + 1;
      if oblivious then st.Obs_stats.st_ph_arb <- st.Obs_stats.st_ph_arb + nact
      else st.Obs_stats.st_ph_claim <- st.Obs_stats.st_ph_claim + !claim_count;
      st.Obs_stats.st_ph_advance <- st.Obs_stats.st_ph_advance + nact;
      if have_faults then
        st.Obs_stats.st_ph_fault <- st.Obs_stats.st_ph_fault + !nlive;
      (match det with
      | Some _ -> st.Obs_stats.st_ph_detect <- st.Obs_stats.st_ph_detect + 1
      | None -> ());
      let owned = st.Obs_stats.st_owned in
      for c = 0 to nchan - 1 do
        if owner.(c) >= 0 then owned.(c) <- owned.(c) + 1
      done;
      (* the scans stop at [nact]: positions beyond it are still-sleeping
         sources with no flits in flight and no advertised edge, so they
         cannot contribute to any counter (compaction runs later, so the
         prefix is still exactly the one arbitration used) *)
      let busy = st.Obs_stats.st_busy in
      for li = 0 to nact - 1 do
        let j = live.(li) in
        let path = path_.(j) and occ = occ_.(j) in
        let hi = min head_.(j) (plen_.(j) - 1) in
        for i = released_.(j) to hi do
          if occ.(i) > 0 then busy.(path.(i)) <- busy.(path.(i)) + 1
        done
      done;
      let waited = st.Obs_stats.st_waited and hol = st.Obs_stats.st_hol in
      for li = 0 to nact - 1 do
        let j = live.(li) in
        let e = wait_edge_.(j) in
        if e >= 0 then begin
          waited.(e) <- waited.(e) + 1;
          st.Obs_stats.st_blocked <- st.Obs_stats.st_blocked + 1;
          (* head-of-line attribution: follow wanted channel -> owner ->
             its wanted channel to the head of the chain and charge that
             channel.  The step cap bounds walks around deadlock knots;
             a self-loop (owner waiting on its own channel cannot happen,
             but an owner advertising the same edge can under adaptive
             carving) stops immediately. *)
          scan_found := e;
          ins_b := 0;
          scan_flag := true;
          while !scan_flag && !ins_b < nmsg do
            let o = owner.(!scan_found) in
            if o < 0 then scan_flag := false
            else begin
              let e' = wait_edge_.(o) in
              if e' < 0 || e' = !scan_found then scan_flag := false
              else begin
                scan_found := e';
                incr ins_b
              end
            end
          done;
          hol.(!scan_found) <- hol.(!scan_found) + 1
        end
      done
    end;
    (* -- end of cycle: sanitizer, probe, termination checks -- *)
    sanitize t;
    (match probe with
    | None -> ()
    | Some f ->
      let waiting =
        List.filter_map
          (fun j ->
            if delivered_at_.(j) >= 0 then None
            else begin
              let c = first_want_chan j t in
              if c >= 0 && head_.(j) >= 0 && owner.(c) <> j then
                Some (label j, c, if owner.(c) >= 0 then Some (label owner.(c)) else None)
              else None
            end)
          (List.init nmsg (fun j -> j))
      in
      f { s_cycle = t; s_occupancy = occupancy ar nmsg; s_waiting = waiting; s_moved = !moved });
    if !finished = nmsg then
      outcome :=
        Some
          (if !perturbed then Recovered { finished_at = t; messages = results (); stats = stats () }
           else All_delivered { finished_at = t; messages = results () })
    else if t >= config.max_cycles then outcome := Some (Cutoff { at = t; messages = results () })
    else if not !moved then begin
      scan_flag := false;
      for j = 0 to nmsg - 1 do
        if active j && ((injected_.(j) = 0 && t < attempt_.(j)) || hold_.(j) > 0) then
          scan_flag := true
      done;
      (* with recovery on, any live message is future work: the watchdog
         will eventually abort it, so nothing is permanently blocked *)
      if Option.is_some config.recovery then
        for j = 0 to nmsg - 1 do
          if active j then scan_flag := true
        done;
      (* a stall window about to close or an unfired event can unblock *)
      if Fault.change_after faults t then scan_flag := true;
      if not !scan_flag then begin
        (* permanently blocked: build the witness.  An adaptive header
           wants its whole option set, the row [register_opts] cached for
           [first_want_chan] just before. *)
        let wants j =
          match first_want_chan j t with
          | -1 -> []
          | c when oblivious || opt_tag_.(j) = -2 -> [ c ]
          | _ ->
            List.filter
              (fun c -> not (have_faults && Fault.down faults c t))
              (Array.to_list opt_row_.(j))
        in
        let blocked =
          List.filter_map
            (fun j ->
              if delivered_at_.(j) >= 0 then None
              else
                match wants j with
                | [] -> None
                | c :: _ as ws ->
                  Some
                    {
                      b_label = label j;
                      b_wants = ws;
                      b_holder = (if owner.(c) >= 0 then Some (label owner.(c)) else None);
                    })
            (List.init nmsg (fun j -> j))
        in
        (* follow the wait-for edges (through the first option when
           adaptive) from the undelivered messages to find a cycle *)
        let wait_cycle =
          let next i =
            let c = first_want_chan i t in
            if c >= 0 && owner.(c) >= 0 && owner.(c) <> i then Some owner.(c) else None
          in
          Waitfor.cycle ~next
            (List.filter (fun j -> delivered_at_.(j) < 0) (List.init nmsg (fun j -> j)))
          |> List.map label
        in
        (* Stramaglia-Keiren-Zantema classification from the terminal
           state.  No wait cycle means the blocked set is acyclic -- a
           topological drain order of the held channels exists, so the
           wedge is [Weak] (only faults produce this: a cycle-free waiter
           on a live free channel would have won it). *)
        scan_flag := false;
        for j = 0 to nmsg - 1 do
          if delivered_at_.(j) >= 0 then scan_flag := true
        done;
        let d_class = Waitfor.classify ~cycle:wait_cycle ~delivered:!scan_flag in
        outcome :=
          Some (Deadlock { d_cycle = t; d_class; d_blocked = blocked;
                           d_wait_cycle = wait_cycle; d_occupancy = occupancy ar nmsg })
      end
    end;
    (* compact the live list only on cycles where something finished *)
    if !finished <> !last_finished then begin
      last_finished := !finished;
      let w = ref 0 in
      for i = 0 to !nlive - 1 do
        let j = live.(i) in
        if delivered_at_.(j) < 0 && fate_.(j) = f_live then begin
          live.(!w) <- j;
          incr w
        end
      done;
      nlive := !w
    end;
    incr cycle
  done;
  let o = match !outcome with Some o -> o | None -> assert false in
  (if stats_on then
     match o with
     | Deadlock d ->
       let ci = match d.d_class with Global -> 0 | Local -> 1 | Weak -> 2 in
       st.Obs_stats.st_classes.(ci) <- st.Obs_stats.st_classes.(ci) + 1
     | All_delivered _ | Cutoff _ | Recovered _ -> ());
  if stats_auto then Obs_stats.fold_armed st;
  if obs_on then begin
    let final =
      match o with
      | All_delivered { finished_at; _ } | Recovered { finished_at; _ } -> finished_at
      | Deadlock d -> d.d_cycle
      | Cutoff { at; _ } -> at
    in
    emit (Obs_event.Run_end { cycle = final; outcome = outcome_string o })
  end;
  o

let run_policy ?config ?probe ?sanitizer ?obs ?stats policy sched =
  let k = acquire policy in
  k.k_busy <- true;
  match run_on k ?config ?probe ?sanitizer ?obs ?stats policy sched with
  | o ->
    k.k_busy <- false;
    o
  | exception e ->
    k.k_busy <- false;
    raise e

let run ?config ?probe ?sanitizer ?obs ?stats rt sched =
  run_policy ?config ?probe ?sanitizer ?obs ?stats (Oblivious rt) sched

let run_adaptive ?config ?probe ?sanitizer ?obs ?stats ad sched =
  run_policy ?config ?probe ?sanitizer ?obs ?stats (Adaptive ad) sched

let pp_fate ppf = function
  | Delivered -> Format.pp_print_string ppf "delivered"
  | Dropped -> Format.pp_print_string ppf "dropped"
  | Gave_up -> Format.pp_print_string ppf "gave up"

let pp_outcome topo ppf = function
  | All_delivered { finished_at; messages } ->
    Format.fprintf ppf "all %d messages delivered by cycle %d" (List.length messages)
      finished_at
  | Cutoff { at; _ } -> Format.fprintf ppf "cutoff at cycle %d (still moving)" at
  | Recovered { finished_at; stats; _ } ->
    let count f = List.length (List.filter (fun s -> s.t_fate = f) stats) in
    let retries = List.fold_left (fun acc s -> acc + s.t_retries) 0 stats in
    Format.fprintf ppf
      "recovered by cycle %d: %d delivered, %d dropped, %d gave up (%d retries total)"
      finished_at (count Delivered) (count Dropped) (count Gave_up) retries;
    List.iter
      (fun s ->
        if s.t_retries > 0 || s.t_fate <> Delivered then
          Format.fprintf ppf "@\n  %s: %a after %d retr%s" s.t_label pp_fate s.t_fate
            s.t_retries
            (if s.t_retries = 1 then "y" else "ies"))
      stats
  | Deadlock d ->
    Format.fprintf ppf "DEADLOCK at cycle %d (%s); wait cycle: %s@\n" d.d_cycle
      (deadlock_class_string d.d_class)
      (String.concat " -> " d.d_wait_cycle);
    List.iter
      (fun b ->
        match b.b_wants with
        | [ c ] ->
          Format.fprintf ppf "  %s waits for %s held by %s@\n" b.b_label
            (Topology.channel_name topo c)
            (match b.b_holder with Some h -> h | None -> "(free)")
        | ws ->
          Format.fprintf ppf "  %s blocked on {%s}@\n" b.b_label
            (String.concat ", " (List.map (Topology.channel_name topo) ws)))
      d.d_blocked;
    List.iter
      (fun (c, l, n) ->
        Format.fprintf ppf "  %s holds %s (%d flit%s)@\n" l (Topology.channel_name topo c) n
          (if n > 1 then "s" else ""))
      d.d_occupancy
