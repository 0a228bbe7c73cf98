type msg_template = {
  t_label : string;
  t_src : Topology.node;
  t_dst : Topology.node;
  t_lengths : int list;
  t_holds : (Topology.channel * int) list list;
  t_offsets : int list;
}

type priority_mode = Fifo_only | Follow_order | All_permutations

type space = {
  messages : msg_template list;
  gaps : int list;
  buffers : int list;
  try_all_orders : bool;
  priorities : priority_mode;
  max_cycles : int;
}

let default_space messages =
  {
    messages;
    gaps = [ 0; 1 ];
    buffers = [ 1; 2 ];
    try_all_orders = true;
    priorities = All_permutations;
    max_cycles = 10_000;
  }

let wide_space messages = { (default_space messages) with gaps = [ 0; 1; 2; 3 ] }

let minimal_length_template rt label src dst =
  let hops = List.length (Routing.path_exn rt src dst) in
  {
    t_label = label;
    t_src = src;
    t_dst = dst;
    t_lengths = List.map (fun e -> max 1 (hops + e)) [ 0; 1 ];
    t_holds = [ [] ];
    t_offsets = [ 0 ];
  }

let length_window ~quick = if quick then [ -2; -1; 0 ] else [ -2; -1; 0; 1 ]

let intent_template ?(extra = length_window ~quick:false) ?(holds = [ [] ]) ?offsets net
    (intent : Paper_nets.intent) =
  let span = List.length (Paper_nets.in_cycle_channels net intent) in
  let base = max 1 span in
  let offsets =
    match offsets with
    | Some l -> l
    | None ->
      (* own-source messages do not contend for the shared channel, so the
         interesting injection times are not captured by the serial order;
         sweep a window of extra delays for them *)
      if intent.i_src = net.Paper_nets.source then [ 0 ] else [ 0; 2; 4; 6; 8; 10 ]
  in
  {
    t_label = intent.i_label;
    t_src = intent.i_src;
    t_dst = intent.i_dst;
    t_lengths = List.map (fun e -> max 1 (base + e)) extra;
    t_holds = holds;
    t_offsets = offsets;
  }

let net_space ~quick net =
  let extra = length_window ~quick in
  let base =
    default_space (List.map (intent_template ~extra net) net.Paper_nets.intents)
  in
  if quick then { base with buffers = [ 1 ] } else base

type witness = {
  w_schedule : Schedule.t;
  w_config : Engine.config;
  w_info : Engine.deadlock_info;
}

type verdict =
  | No_deadlock of { runs : int }
  | Deadlock_found of { runs : int; witness : witness }

let is_deadlock_found = function Deadlock_found _ -> true | No_deadlock _ -> false

let fact n =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

let pow b e =
  let rec go acc k = if k = 0 then acc else go (acc * b) (k - 1) in
  go 1 e

let space_size sp =
  let n = List.length sp.messages in
  let orders = if sp.try_all_orders then fact n else 1 in
  let prios = match sp.priorities with All_permutations -> fact n | Fifo_only | Follow_order -> 1 in
  let gaps = pow (List.length sp.gaps) (max 0 (n - 1)) in
  let lengths = List.fold_left (fun acc t -> acc * List.length t.t_lengths) 1 sp.messages in
  let holds = List.fold_left (fun acc t -> acc * List.length t.t_holds) 1 sp.messages in
  let offsets = List.fold_left (fun acc t -> acc * List.length t.t_offsets) 1 sp.messages in
  orders * prios * gaps * lengths * holds * offsets * List.length sp.buffers

exception Engine_bug of Diagnostic.t

let engine_bug code ~rt ~sched ~cycle msg =
  let context =
    [
      ("algorithm", Routing.name rt);
      ("cycle", string_of_int cycle);
      ( "schedule",
        String.concat ", " (List.map (fun s -> s.Schedule.ms_label) sched) );
    ]
  in
  raise (Engine_bug (Diagnostic.error ~context code (Diagnostic.Algorithm (Routing.name rt)) msg))

(* One task of the parallel sweep: a single (order, priority) cell of the
   outer product, with the whole gap/length/offset/hold/buffer enumeration
   run inside it.  [t_started] counts every [Engine.run] call the task
   issued (including determinism-confirm replays), as opposed to [t_runs]
   which is the sweep's reported tally; the difference between the global
   start count and the canonical-prefix sum of [t_started] is exactly the
   speculative work a parallel sweep discarded. *)
type task_result = { t_runs : int; t_started : int; t_witness : witness option }

let explore ?(stop_at_first = true) ?domains rt sp =
  let n = List.length sp.messages in
  if n = 0 then invalid_arg "Explorer.explore: empty message set";
  List.iter
    (fun t ->
      if t.t_lengths = [] || t.t_holds = [] || t.t_offsets = [] then
        invalid_arg "Explorer.explore: template with empty candidate list")
    sp.messages;
  let templates = Array.of_list sp.messages in
  let gap_arr = Array.of_list sp.gaps in
  (* the template candidate lists as arrays, once per sweep: the innermost
     loop indexes them per run *)
  let lengths = Array.map (fun t -> Array.of_list t.t_lengths) templates in
  let holds_of = Array.map (fun t -> Array.of_list t.t_holds) templates in
  let offsets = Array.map (fun t -> Array.of_list t.t_offsets) templates in
  let buffers = Array.of_list sp.buffers in
  (* All permutations of 0..n-1 in [Combinat.iter_permutations] order, so a
     task index maps to exactly the (order, priority) pair the sequential
     nesting would visit at that position. *)
  let perms =
    let acc = ref [] in
    Combinat.iter_permutations (fun p -> acc := Array.copy p :: !acc) (Array.init n Fun.id);
    Array.of_list (List.rev !acc)
  in
  let orders = if sp.try_all_orders then perms else [| Array.init n Fun.id |] in
  let prios_per_order =
    match sp.priorities with
    | All_permutations -> Array.length perms
    | Fifo_only | Follow_order -> 1
  in
  let ntasks = Array.length orders * prios_per_order in
  (* Every Engine.run call across all tasks and domains, whether or not its
     task's result survives the canonical reduce. *)
  let started = Atomic.make 0 in
  let exception Task_done in
  let run_task ~stop ti =
    let order = orders.(ti / prios_per_order) in
    let priority =
      match sp.priorities with
      | Fifo_only -> None
      | Follow_order -> Some order
      | All_permutations -> Some perms.(ti mod prios_per_order)
    in
    (* one arbitration and one config per buffer size for the whole task:
       every run of the task hands the kernel the physically same priority
       list, so its rank map is computed once per task, not once per run *)
    let arbitration =
      match priority with
      | None -> Engine.Fifo
      | Some p -> Engine.Priority (Array.to_list (Array.map (fun mi -> templates.(mi).t_label) p))
    in
    let configs =
      Array.map
        (fun buffer ->
          { Engine.buffer_capacity = buffer; arbitration; discipline = Engine.Wormhole;
            max_cycles = sp.max_cycles; faults = Fault.empty; recovery = None })
        buffers
    in
    let inject_time = Array.make n 0 in
    let runs = ref 0 in
    let my_started = ref 0 in
    let witness = ref None in
    let note_start () =
      incr my_started;
      ignore (Atomic.fetch_and_add started 1)
    in
    let run ~gap_choice ~len_choice ~hold_choice ~off_choice ~config =
      (* a lower-indexed task has already found a witness: this task's
         partial tally is discarded by the reduce, so just bail out *)
      if stop () then raise Task_done;
      let t = ref 0 in
      Array.iteri
        (fun j mi ->
          if j > 0 then t := !t + gap_choice.(j - 1);
          inject_time.(mi) <- !t + offsets.(mi).(off_choice.(mi)))
        order;
      let sched =
        List.init n (fun mi ->
            let tpl = templates.(mi) in
            {
              Schedule.ms_label = tpl.t_label;
              ms_src = tpl.t_src;
              ms_dst = tpl.t_dst;
              ms_length = lengths.(mi).(len_choice.(mi));
              ms_inject_at = inject_time.(mi);
              ms_holds = holds_of.(mi).(hold_choice.(mi));
            })
      in
      incr runs;
      note_start ();
      match Engine.run ~config rt sched with
      | Engine.Deadlock info ->
        (* replay to confirm determinism before reporting.  The replay runs
           on the kernel the first run just left behind, so comparing the
           whole witness (not only its cycle) also proves that the kernel's
           per-run reset is complete. *)
        let confirmed =
          note_start ();
          match Engine.run ~config rt sched with
          | Engine.Deadlock info' -> info' = info
          | _ -> false
        in
        if not confirmed then
          engine_bug "E090" ~rt ~sched ~cycle:info.Engine.d_cycle
            "deadlock witness failed to replay: the engine is not deterministic";
        if info.Engine.d_wait_cycle = [] then
          engine_bug "E091" ~rt ~sched ~cycle:info.Engine.d_cycle
            "reported deadlock has no wait-for cycle";
        let w = { w_schedule = sched; w_config = config; w_info = info } in
        witness := Some w;
        if stop_at_first then raise Task_done
      | Engine.All_delivered _ | Engine.Cutoff _ | Engine.Recovered _ -> ()
    in
    let gap_choice = Array.make (max 0 (n - 1)) 0 in
    let len_choice = Array.make n 0 in
    let hold_choice = Array.make n 0 in
    let off_choice = Array.make n 0 in
    let rec gaps j =
      if j = Array.length gap_choice then lens 0
      else
        for g = 0 to Array.length gap_arr - 1 do
          gap_choice.(j) <- gap_arr.(g);
          gaps (j + 1)
        done
    and lens mi =
      if mi = n then offs 0
      else
        for l = 0 to Array.length lengths.(mi) - 1 do
          len_choice.(mi) <- l;
          lens (mi + 1)
        done
    and offs mi =
      if mi = n then holds 0
      else
        for o = 0 to Array.length offsets.(mi) - 1 do
          off_choice.(mi) <- o;
          offs (mi + 1)
        done
    and holds mi =
      if mi = n then
        Array.iter
          (fun config -> run ~gap_choice ~len_choice ~hold_choice ~off_choice ~config)
          configs
      else
        for h = 0 to Array.length holds_of.(mi) - 1 do
          hold_choice.(mi) <- h;
          holds (mi + 1)
        done
    in
    (try gaps 0 with Task_done -> ());
    { t_runs = !runs; t_started = !my_started; t_witness = !witness }
  in
  let results =
    Wr_pool.map_until ?domains
      ~hit:(fun r -> stop_at_first && r.t_witness <> None)
      (fun ~stop ti () -> run_task ~stop ti)
      (Array.make ntasks ())
  in
  (* Canonical reduce in task-index order.  With [stop_at_first] the pool
     guarantees every task up to (and including) the least-indexed hit ran
     to its natural end and everything beyond is [None], so the totals and
     the selected witness are byte-identical to the sequential sweep. *)
  let total = ref 0 in
  let canonical_started = ref 0 in
  let last_witness = ref None in
  (try
     Array.iter
       (function
         | None -> raise Exit
         | Some r ->
           total := !total + r.t_runs;
           canonical_started := !canonical_started + r.t_started;
           (match r.t_witness with Some w -> last_witness := Some w | None -> ()))
       results
   with Exit -> ());
  (* Everything started beyond the canonical prefix was speculative work
     whose results the reduce above discarded; report it so the engine's
     run tally stays exact. *)
  Engine.note_runs_cancelled (Atomic.get started - !canonical_started);
  match !last_witness with
  | Some w -> Deadlock_found { runs = !total; witness = w }
  | None -> No_deadlock { runs = !total }

let pp_verdict topo ppf = function
  | No_deadlock { runs } -> Format.fprintf ppf "no deadlock in %d runs" runs
  | Deadlock_found { runs; witness } ->
    Format.fprintf ppf "deadlock found after %d runs:@\n" runs;
    Format.fprintf ppf "%a" (Engine.pp_outcome topo) (Engine.Deadlock witness.w_info);
    Format.fprintf ppf "schedule:@\n%a" (Schedule.pp topo) witness.w_schedule
