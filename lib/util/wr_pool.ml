(* Deterministic Domain-based work pool.

   Design goals, in priority order:

   1. Determinism: every entry point produces byte-identical results for any
      domain count, including under early cancellation.  See the canonical
      reduce argument on [map_until].
   2. No oversubscription: helper domains are drawn from a process-wide
      budget, so nested pool calls degrade to the inline sequential path
      instead of multiplying domains.
   3. [domains = 1] is the exact sequential code path (no domains spawned,
      no atomics on the task path), so single-core behaviour is the old
      behaviour.

   There are no persistent workers: each parallel call spawns its helpers
   and joins them before returning.  Spawn cost (~10-30us each) is noise
   against the sweep workloads this pool exists for. *)

(* ------------------------------------------------------------------ *)
(* Domain-count policy                                                 *)

let parse_env () =
  match Sys.getenv_opt "WORMHOLE_DOMAINS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let forced_default : int option ref = ref None

let set_default_domains n =
  if n < 1 then invalid_arg "Wr_pool.set_default_domains: need >= 1";
  forced_default := Some n

let default_domains () =
  match !forced_default with
  | Some n -> n
  | None -> (
    match parse_env () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Helper budget                                                       *)

(* Process-wide count of helper domains that may still be spawned.
   Initialized on first use to [default_domains () - 1] (the caller's own
   domain is the implicit worker).  An explicit [~domains] request is
   authoritative and may drive the balance negative; a defaulted request
   only takes what is available.  Either way a nested call observes a
   drained budget and runs inline, so the total number of live domains
   stays bounded. *)
let uninitialized = min_int
let budget = Atomic.make uninitialized

let budget_ref () =
  if Atomic.get budget = uninitialized then
    ignore
      (Atomic.compare_and_set budget uninitialized
         (max 0 (default_domains () - 1)));
  budget

let reserve ~forced k =
  if k <= 0 then 0
  else begin
    let b = budget_ref () in
    if forced then begin
      ignore (Atomic.fetch_and_add b (-k));
      k
    end
    else begin
      let rec take () =
        let old = Atomic.get b in
        let got = min k (max old 0) in
        if got = 0 then 0
        else if Atomic.compare_and_set b old (old - got) then got
        else take ()
      in
      take ()
    end
  end

let release k = if k > 0 then ignore (Atomic.fetch_and_add (budget_ref ()) k)

(* ------------------------------------------------------------------ *)
(* Task execution                                                      *)

(* Run [body 0 .. body (n-1)], each exactly once, on [helpers + 1] domains.
   Indices are claimed in ascending chunks from a shared atomic counter, so
   lower indices are always claimed no later than higher ones.  All helpers
   are joined before returning; the first exception (caller's first, then
   helpers in domain order) is re-raised after the join, so no domain ever
   outlives the call. *)
let run_tasks ~helpers ~chunk n body =
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          body i
        done;
        loop ()
      end
    in
    loop ()
  in
  if helpers = 0 then worker ()
  else begin
    let doms = Array.init helpers (fun _ -> Domain.spawn worker) in
    let first_exn = ref None in
    let note e = match !first_exn with None -> first_exn := Some e | Some _ -> () in
    (try worker () with e -> note e);
    Array.iter (fun d -> try Domain.join d with e -> note e) doms;
    match !first_exn with None -> () | Some e -> raise e
  end

(* ------------------------------------------------------------------ *)
(* Canonical-order primitives                                          *)

let map_until ?domains ~hit f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  if n = 0 then results
  else begin
    let explicit = domains <> None in
    let want =
      match domains with
      | Some d ->
        if d < 1 then invalid_arg "Wr_pool.map_until: domains < 1";
        d
      | None -> default_domains ()
    in
    let want = min want n in
    let sequential () =
      (try
         for i = 0 to n - 1 do
           let r = f ~stop:(fun () -> false) i arr.(i) in
           results.(i) <- Some r;
           if hit r then raise Exit
         done
       with Exit -> ());
      results
    in
    if want <= 1 then sequential ()
    else begin
      let helpers = reserve ~forced:explicit (want - 1) in
      if helpers = 0 then sequential ()
      else begin
        (* [best] is the least task index observed to hit so far.  A task
           is skipped (or told to stop early) only when its index is
           strictly greater than [best]; since [best] only decreases and
           ends at the least hitting index overall, every task with index
           <= the final winner runs to its own natural end.  Scanning
           [results] in ascending order therefore reproduces exactly the
           prefix the sequential loop would have produced. *)
        let best = Atomic.make max_int in
        let rec lower i =
          let cur = Atomic.get best in
          if i < cur && not (Atomic.compare_and_set best cur i) then lower i
        in
        let body i =
          if Atomic.get best >= i then begin
            let r = f ~stop:(fun () -> Atomic.get best < i) i arr.(i) in
            results.(i) <- Some r;
            if hit r then lower i
          end
        in
        let chunk = max 1 (n / ((helpers + 1) * 8)) in
        Fun.protect
          ~finally:(fun () -> release helpers)
          (fun () -> run_tasks ~helpers ~chunk n body);
        (* Discard results past the winner: the sequential path never
           computed them, and partial stop-interrupted results must not
           leak. *)
        let w = Atomic.get best in
        if w < max_int then
          for i = w + 1 to n - 1 do
            results.(i) <- None
          done;
        results
      end
    end
  end

let mapi_array ?domains f arr =
  let res = map_until ?domains ~hit:(fun _ -> false) (fun ~stop:_ i x -> f i x) arr in
  Array.map (function Some r -> r | None -> assert false) res

let map ?domains f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l -> Array.to_list (mapi_array ?domains (fun _ x -> f x) (Array.of_list l))

let map_reduce ?domains ~map:f ~reduce ~init l =
  (* the parallel map already yields results in task-index order, so a
     sequential left fold over it IS the canonical reduction *)
  List.fold_left reduce init (map ?domains f l)

let find_mapi ?domains f arr =
  let res =
    map_until ?domains
      ~hit:(fun r -> r <> None)
      (fun ~stop i x -> f ~stop i x)
      arr
  in
  let n = Array.length res in
  let rec scan i =
    if i >= n then None
    else
      match res.(i) with
      | Some (Some v) -> Some (i, v)
      | Some None | None -> scan (i + 1)
  in
  scan 0
