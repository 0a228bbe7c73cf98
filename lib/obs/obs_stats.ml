(* Counters-first telemetry accumulator.  See obs_stats.mli for the
   contract; the short version is: every field is a plain int (or int
   array) the kernel bumps with direct stores, allocation happens only in
   [create], and determinism comes from merging per-run accumulators in
   canonical task-index order rather than sharing state across domains. *)

type t = {
  st_nchan : int;
  st_owned : int array;
  st_busy : int array;
  st_acquired : int array;
  st_waited : int array;
  st_hol : int array;
  st_lat_counts : int array;
  mutable st_lat_sum : int;
  mutable st_lat_max : int;
  mutable st_delivered : int;
  mutable st_blocked : int;
  mutable st_runs : int;
  mutable st_cycles : int;
  mutable st_ph_arb : int;
  mutable st_ph_claim : int;
  mutable st_ph_advance : int;
  mutable st_ph_fault : int;
  mutable st_ph_detect : int;
  st_disc_runs : int array;
  st_classes : int array;
}

(* fixed slot orders for the two small labelled rows *)
let disciplines = [| "wormhole"; "virtual-cut-through"; "store-and-forward" |]
let classes = [| "global"; "local"; "weak" |]

let lat_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
let n_buckets = Array.length lat_bounds

let create ~nchan =
  {
    st_nchan = nchan;
    st_owned = Array.make (max nchan 1) 0;
    st_busy = Array.make (max nchan 1) 0;
    st_acquired = Array.make (max nchan 1) 0;
    st_waited = Array.make (max nchan 1) 0;
    st_hol = Array.make (max nchan 1) 0;
    st_lat_counts = Array.make (n_buckets + 1) 0;
    st_lat_sum = 0;
    st_lat_max = 0;
    st_delivered = 0;
    st_blocked = 0;
    st_runs = 0;
    st_cycles = 0;
    st_ph_arb = 0;
    st_ph_claim = 0;
    st_ph_advance = 0;
    st_ph_fault = 0;
    st_ph_detect = 0;
    st_disc_runs = Array.make (Array.length disciplines) 0;
    st_classes = Array.make (Array.length classes) 0;
  }

let merge ~into src =
  if into.st_nchan <> src.st_nchan then
    invalid_arg
      (Printf.sprintf "Obs_stats.merge: nchan mismatch (%d vs %d)"
         into.st_nchan src.st_nchan);
  let add dst s =
    for i = 0 to into.st_nchan - 1 do
      dst.(i) <- dst.(i) + s.(i)
    done
  in
  add into.st_owned src.st_owned;
  add into.st_busy src.st_busy;
  add into.st_acquired src.st_acquired;
  add into.st_waited src.st_waited;
  add into.st_hol src.st_hol;
  for i = 0 to n_buckets do
    into.st_lat_counts.(i) <- into.st_lat_counts.(i) + src.st_lat_counts.(i)
  done;
  into.st_lat_sum <- into.st_lat_sum + src.st_lat_sum;
  into.st_lat_max <- max into.st_lat_max src.st_lat_max;
  into.st_delivered <- into.st_delivered + src.st_delivered;
  into.st_blocked <- into.st_blocked + src.st_blocked;
  into.st_runs <- into.st_runs + src.st_runs;
  into.st_cycles <- into.st_cycles + src.st_cycles;
  into.st_ph_arb <- into.st_ph_arb + src.st_ph_arb;
  into.st_ph_claim <- into.st_ph_claim + src.st_ph_claim;
  into.st_ph_advance <- into.st_ph_advance + src.st_ph_advance;
  into.st_ph_fault <- into.st_ph_fault + src.st_ph_fault;
  into.st_ph_detect <- into.st_ph_detect + src.st_ph_detect;
  for i = 0 to Array.length into.st_disc_runs - 1 do
    into.st_disc_runs.(i) <- into.st_disc_runs.(i) + src.st_disc_runs.(i)
  done;
  for i = 0 to Array.length into.st_classes - 1 do
    into.st_classes.(i) <- into.st_classes.(i) + src.st_classes.(i)
  done

let none = create ~nchan:0

let observe_latency t lat =
  t.st_delivered <- t.st_delivered + 1;
  t.st_lat_sum <- t.st_lat_sum + lat;
  if lat > t.st_lat_max then t.st_lat_max <- lat;
  (* linear walk: 13 bounds, delivery is a cold event next to the cycle
     sweeps, and the walk allocates nothing *)
  let i = ref 0 in
  while !i < n_buckets && lat > lat_bounds.(!i) do
    incr i
  done;
  t.st_lat_counts.(!i) <- t.st_lat_counts.(!i) + 1

(* -- process-wide arming ---------------------------------------------- *)

let armed_flag = Atomic.make false
let armed_runs = Atomic.make 0
let armed_cycles = Atomic.make 0
let armed_delivered = Atomic.make 0
let armed_blocked = Atomic.make 0
let armed_lat_sum = Atomic.make 0

let arm () = Atomic.set armed_flag true
let disarm () = Atomic.set armed_flag false
let armed () = Atomic.get armed_flag

let fold_armed t =
  ignore (Atomic.fetch_and_add armed_runs t.st_runs);
  ignore (Atomic.fetch_and_add armed_cycles t.st_cycles);
  ignore (Atomic.fetch_and_add armed_delivered t.st_delivered);
  ignore (Atomic.fetch_and_add armed_blocked t.st_blocked);
  ignore (Atomic.fetch_and_add armed_lat_sum t.st_lat_sum)

let armed_totals () =
  [
    ("runs", Atomic.get armed_runs);
    ("cycles", Atomic.get armed_cycles);
    ("delivered", Atomic.get armed_delivered);
    ("blocked_cycles", Atomic.get armed_blocked);
    ("latency_sum", Atomic.get armed_lat_sum);
  ]

(* -- derived quantities ------------------------------------------------ *)

let utilization t c =
  if t.st_cycles = 0 then 0.0
  else float_of_int t.st_busy.(c) /. float_of_int t.st_cycles

let percentile t q =
  if t.st_delivered = 0 then 0
  else begin
    (* smallest bound whose cumulative count covers q% of deliveries;
       ceil so p100 always lands on a populated bucket *)
    let target =
      let n = float_of_int t.st_delivered *. q /. 100.0 in
      max 1 (int_of_float (ceil n))
    in
    let cum = ref 0 and i = ref 0 in
    while !i < n_buckets && !cum + t.st_lat_counts.(!i) < target do
      cum := !cum + t.st_lat_counts.(!i);
      incr i
    done;
    if !i < n_buckets then lat_bounds.(!i) else t.st_lat_max
  end

let top_blocking t =
  let all = ref [] in
  for c = t.st_nchan - 1 downto 0 do
    if t.st_hol.(c) > 0 then all := (c, t.st_hol.(c)) :: !all
  done;
  let sorted =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) !all
  in
  List.filteri (fun i _ -> i < 3) sorted

(* -- renderers --------------------------------------------------------- *)

(* a channel earns a row/series once any of its counters is nonzero; the
   predicate is a pure function of accumulator values, so the filtered
   output stays byte-deterministic *)
let active t c =
  t.st_owned.(c) > 0 || t.st_busy.(c) > 0 || t.st_acquired.(c) > 0
  || t.st_waited.(c) > 0
  || t.st_hol.(c) > 0

let to_prometheus topo t =
  let sample suffix labels value =
    { Obs_metrics.s_suffix = suffix; s_labels = labels; s_value = value }
  in
  let family kind name help samples =
    { Obs_metrics.f_name = name; f_kind = kind; f_help = help; f_samples = samples }
  in
  let counter = family Obs_metrics.Counter in
  let scalar name help v = counter name help [ sample "" [] v ] in
  let labelled label names values =
    Array.to_list (Array.mapi (fun i n -> sample "" [ (label, n) ] values.(i)) names)
  in
  (* one series per active channel, in channel-id order *)
  let per_channel name help value_of =
    counter name help
      (List.filter_map
         (fun c ->
           if active t c then
             Some (sample "" [ ("channel", Topology.channel_name topo c) ] (value_of c))
           else None)
         (List.init t.st_nchan Fun.id))
  in
  let buckets =
    let cum = ref 0 in
    List.init (n_buckets + 1) (fun i ->
        cum := !cum + t.st_lat_counts.(i);
        let le = if i < n_buckets then string_of_int lat_bounds.(i) else "+Inf" in
        sample "_bucket" [ ("le", le) ] !cum)
  in
  (* families in name order *)
  Obs_metrics.to_prometheus
    [
      per_channel "wormhole_stats_channel_acquisitions_total"
        "successful channel acquisitions (awards/claims)" (fun c -> t.st_acquired.(c));
      per_channel "wormhole_stats_channel_busy_cycles_total"
        "cycles the channel held at least one buffered flit" (fun c -> t.st_busy.(c));
      per_channel "wormhole_stats_channel_hol_blocked_cycles_total"
        "waiter-cycles attributed to the channel as head of the wait chain" (fun c ->
          t.st_hol.(c));
      per_channel "wormhole_stats_channel_owned_cycles_total"
        "cycles the channel was owned by some message" (fun c -> t.st_owned.(c));
      per_channel "wormhole_stats_channel_wait_cycles_total"
        "waiter-cycles spent blocked on the channel" (fun c -> t.st_waited.(c));
      scalar "wormhole_stats_cycles_total" "kernel cycles accumulated" t.st_cycles;
      counter "wormhole_stats_deadlocks_total"
        "deadlock outcomes by Stramaglia-Keiren-Zantema class"
        (labelled "class" classes t.st_classes);
      scalar "wormhole_stats_delivered_total" "messages delivered" t.st_delivered;
      family Obs_metrics.Histogram "wormhole_stats_latency_cycles"
        "injection-to-delivery latency"
        (buckets @ [ sample "_sum" [] t.st_lat_sum; sample "_count" [] t.st_delivered ]);
      counter "wormhole_stats_phase_work_total" "per-phase message visits"
        (labelled "phase"
           [| "advance"; "arbitration"; "claims"; "detect"; "fault" |]
           [| t.st_ph_advance; t.st_ph_arb; t.st_ph_claim; t.st_ph_detect; t.st_ph_fault |]);
      counter "wormhole_stats_runs_by_discipline_total" "runs per switching discipline"
        (labelled "discipline" disciplines t.st_disc_runs);
      scalar "wormhole_stats_runs_total" "simulator runs accumulated" t.st_runs;
    ]

let to_json topo t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"wormhole-stats/1\"";
  Buffer.add_string buf
    (Printf.sprintf ",\"nchan\":%d,\"runs\":%d,\"cycles\":%d" t.st_nchan
       t.st_runs t.st_cycles);
  Buffer.add_string buf
    (Printf.sprintf ",\"delivered\":%d,\"blocked_cycles\":%d" t.st_delivered
       t.st_blocked);
  Buffer.add_string buf ",\"latency\":{\"buckets\":[";
  for i = 0 to n_buckets - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf "{\"le\":%d,\"count\":%d}" lat_bounds.(i)
         t.st_lat_counts.(i))
  done;
  Buffer.add_string buf
    (Printf.sprintf "],\"overflow\":%d,\"sum\":%d,\"max\":%d}"
       t.st_lat_counts.(n_buckets) t.st_lat_sum t.st_lat_max);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"phases\":{\"arbitration\":%d,\"claims\":%d,\"advance\":%d,\"fault\":%d,\"detect\":%d}"
       t.st_ph_arb t.st_ph_claim t.st_ph_advance t.st_ph_fault t.st_ph_detect);
  Buffer.add_string buf ",\"disciplines\":{";
  Array.iteri
    (fun i d ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\":%d" (if i > 0 then "," else "") d
           t.st_disc_runs.(i)))
    disciplines;
  Buffer.add_string buf "},\"deadlocks\":{";
  Array.iteri
    (fun i cls ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\":%d" (if i > 0 then "," else "") cls
           t.st_classes.(i)))
    classes;
  Buffer.add_char buf '}';
  Buffer.add_string buf ",\"channels\":[";
  let first = ref true in
  for c = 0 to t.st_nchan - 1 do
    if active t c then begin
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"name\":\"%s\",\"owned\":%d,\"busy\":%d,\"acquired\":%d,\"wait\":%d,\"hol\":%d}"
           c
           (Diagnostic.json_escape (Topology.channel_name topo c))
           t.st_owned.(c) t.st_busy.(c) t.st_acquired.(c) t.st_waited.(c)
           t.st_hol.(c))
    end
  done;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let heatmap topo t =
  let width = 40 in
  let actives = ref [] in
  for c = t.st_nchan - 1 downto 0 do
    if active t c then actives := c :: !actives
  done;
  match !actives with
  | [] -> ""
  | channels ->
      let name_width =
        List.fold_left
          (fun w c -> max w (String.length (Topology.channel_name topo c)))
          7 channels
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %5s  %s  %6s %6s %6s\n" name_width "channel"
           "util" (String.make width ' ') "acq" "wait" "hol");
      List.iter
        (fun c ->
          let u = utilization t c in
          let filled =
            (* ceil so any nonzero utilization shows at least one mark *)
            min width (int_of_float (ceil (u *. float_of_int width)))
          in
          let bar =
            String.make filled '#' ^ String.make (width - filled) '.'
          in
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %4.0f%%  %s  %6d %6d %6d\n" name_width
               (Topology.channel_name topo c) (u *. 100.0) bar t.st_acquired.(c)
               t.st_waited.(c) t.st_hol.(c)))
        channels;
      Buffer.contents buf

let summary topo t =
  let buf = Buffer.create 512 in
  let tbl = Table.create ~aligns:[ Table.Left; Table.Right ] [ "metric"; "value" ] in
  let pct q =
    if t.st_delivered = 0 then "-"
    else
      let v = percentile t q in
      (* a bucket bound at or above the observed max collapses to the
         exact max; anything else is the bucket's upper bound *)
      if v >= t.st_lat_max then string_of_int t.st_lat_max
      else "<=" ^ string_of_int v
  in
  Table.add_row tbl [ "runs"; string_of_int t.st_runs ];
  Table.add_row tbl [ "cycles"; string_of_int t.st_cycles ];
  Table.add_row tbl [ "delivered"; string_of_int t.st_delivered ];
  Table.add_row tbl [ "p50 latency (cycles)"; pct 50.0 ];
  Table.add_row tbl [ "p90 latency (cycles)"; pct 90.0 ];
  Table.add_row tbl [ "p99 latency (cycles)"; pct 99.0 ];
  Table.add_row tbl [ "max latency (cycles)"; string_of_int t.st_lat_max ];
  let max_util = ref 0.0 and max_util_c = ref (-1) in
  for c = 0 to t.st_nchan - 1 do
    let u = utilization t c in
    if u > !max_util then begin
      max_util := u;
      max_util_c := c
    end
  done;
  Table.add_row tbl
    [
      "max channel util";
      (if !max_util_c < 0 then "-"
       else
         Printf.sprintf "%.1f%% (%s)" (!max_util *. 100.0)
           (Topology.channel_name topo !max_util_c));
    ];
  Table.add_row tbl [ "blocked cycles"; string_of_int t.st_blocked ];
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_char buf '\n';
  (match top_blocking t with
  | [] -> Buffer.add_string buf "no head-of-line blocking recorded\n"
  | tops ->
      let bt =
        Table.create
          ~aligns:[ Table.Left; Table.Right; Table.Right ]
          [ "blocking channel"; "hol-cycles"; "wait-cycles" ]
      in
      List.iter
        (fun (c, hol) ->
          Table.add_row bt
            [
              Topology.channel_name topo c;
              string_of_int hol;
              string_of_int t.st_waited.(c);
            ])
        tops;
      Buffer.add_string buf (Table.render bt));
  Buffer.contents buf
