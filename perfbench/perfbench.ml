(* The repository benchmark: four allocator workloads on the simulated
   8-processor machine. End-to-end metrics come from untraced simulated
   passes and a host replay; per-layer metrics come from a separate
   traced pass, which must reproduce the untraced run exactly.

   perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   The last line of standard output is one JSON object
   {"correct","attempted","failed","metrics"}; lines before it start
   with "#" and describe the run. A failed allocator check makes the
   result incorrect; a broken benchmark invariant (the trace perturbing
   the run, counts that do not reconcile) exits nonzero instead. *)

open Pb_util

let nprocs = 8

(* --- workloads --- *)

type shape = Larson of Larson.params | Serve of Server_mix.params

type workload = {
  name : string;
  alloc : string;  (** [Allocators.find] label *)
  shape : seed:int -> shape;
  default_seed : int;
}

(* The paper's Larson configuration at the harness's Full scale. *)
let larson_paper ~seed =
  Larson
    { Larson.rounds = 600; handoffs = 6; objects_per_thread = 2000; min_size = 10; max_size = 100; work_per_op = 5; seed }

(* The bursty open loop at its default shape; 48k requests keep the
   seed-to-seed spread of p99 within its bound at a cost the run allows. *)
let serve ~seed = Serve { Server_mix.default_params with Server_mix.profile = Server_mix.Bursty; requests = 48_000; seed }

(* Larson with sizes spanning the small/large threshold by two orders of
   magnitude, so nearly every request takes the large path. *)
let large_churn ~seed =
  Larson
    {
      Larson.rounds = 250;
      handoffs = 8;
      objects_per_thread = 100;
      min_size = 64;
      max_size = 256_000;
      work_per_op = 5;
      seed;
    }

let workloads =
  [
    { name = "larson-paper"; alloc = "hoard"; shape = larson_paper; default_seed = 3000 };
    { name = "serve-fe"; alloc = "hoard-fe"; shape = serve; default_seed = 9000 };
    { name = "serve-lf"; alloc = "hoard-gl"; shape = serve; default_seed = 9000 };
    { name = "large-churn"; alloc = "hoard-gl"; shape = large_churn; default_seed = 3000 };
  ]

let factory_of wl =
  match Allocators.find wl.alloc with
  | Some f -> f
  | None -> fail "unknown allocator %s" wl.alloc

let make_workload ?recorder = function
  | Larson p -> Larson.make ~params:p ()
  | Serve p -> Server_mix.make ~params:p ?recorder ()

(* --- the client side of a run ---

   Every simulated pass, traced or not, drives the allocator through this
   wrapper: it counts the blocks the workload allocates and frees and
   counts invalid addresses as failed operations. On Larson workloads it
   also times each request, one replace (a free followed by a malloc on
   the same processor), from the free's entry to the malloc's return. It
   reads only the simulated clock, which charges nothing. *)

type client = {
  mutable c_mallocs : int;
  mutable c_frees : int;
  mutable c_bad : int;
  c_free_at : int array;
  c_lat : Vec.t;
}

let client_wrap c ~time_replaces (pf : Platform.t) (a : Alloc_intf.t) : Alloc_intf.t =
  let good p = if p <= 0 || p land 7 <> 0 then c.c_bad <- c.c_bad + 1 in
  let malloc size =
    let p = a.Alloc_intf.malloc size in
    good p;
    c.c_mallocs <- c.c_mallocs + 1;
    if time_replaces then begin
      let proc = pf.Platform.self_proc () in
      let t0 = c.c_free_at.(proc) in
      if t0 >= 0 then begin
        Vec.push c.c_lat (pf.Platform.now () - t0);
        c.c_free_at.(proc) <- -1
      end
    end;
    p
  in
  let free addr =
    if time_replaces then c.c_free_at.(pf.Platform.self_proc ()) <- pf.Platform.now ();
    c.c_frees <- c.c_frees + 1;
    a.Alloc_intf.free addr
  in
  {
    a with
    Alloc_intf.malloc;
    free;
    malloc_batch =
      (fun n size ->
        let blocks = a.Alloc_intf.malloc_batch n size in
        Array.iter good blocks;
        c.c_bad <- c.c_bad + max 0 (n - Array.length blocks);
        c.c_mallocs <- c.c_mallocs + Array.length blocks;
        blocks);
    free_batch =
      (fun addrs ->
        c.c_frees <- c.c_frees + Array.length addrs;
        a.Alloc_intf.free_batch addrs);
  }

(* --- one simulated pass --- *)

type sim = {
  cycles : int;
  proc_cycles : int array;
  stats : Alloc_stats.snapshot;
  lock_stats : (string * int * int) list;
  addr_space : int;
  host_s : float;
  lat : int array;  (** request latencies, completion order *)
  expected : int;  (** requests the workload issues *)
  hist : (int * int * int) array;  (** the [Server_mix] recorder's latency histogram (empty on Larson) *)
  client : client;
  ends : (int * int) array array;  (** per processor: (request end, request id), in time order *)
  problems : string list;  (** failed output checks *)
  tracer : Pb_trace.t option;
}

let completed s = Array.length s.lat

(* Output checks every pass makes: the allocator's and the address
   space's own invariants, and that mallocs minus frees equal the blocks
   the workload still holds, which is none: every workload frees what it
   allocated. *)
let output_problems (raw : Alloc_intf.t) sim client =
  let problems = ref [] in
  let checked what f = try f () with Failure m | Invalid_argument m -> problems := (what ^ ": " ^ m) :: !problems in
  checked "allocator check" raw.Alloc_intf.check;
  checked "address-space check" (fun () -> Vmem.check (Sim.vmem sim));
  let st = raw.Alloc_intf.stats () in
  let live = client.c_mallocs - client.c_frees in
  if st.Alloc_stats.mallocs - st.Alloc_stats.frees <> live then
    problems :=
      Printf.sprintf "allocator counts %d mallocs - %d frees, the workload holds %d blocks" st.Alloc_stats.mallocs
        st.Alloc_stats.frees live
      :: !problems;
  if live <> 0 then problems := Printf.sprintf "%d blocks never freed" live :: !problems;
  (st, List.rev !problems)

let simulate ?(trace = false) ?recorder wl shape =
  let factory = factory_of wl in
  let sim = Sim.create ~nprocs () in
  let pf = Sim.platform sim in
  let tracer = if trace then Some (Pb_trace.create sim) else None in
  let raw = factory.Alloc_intf.instantiate (match tracer with Some t -> Pb_trace.platform t | None -> pf) in
  let a = match tracer with Some t -> Pb_trace.wrap t raw | None -> raw in
  let a = match recorder with Some r -> Pb_replay.wrap r a | None -> a in
  let client =
    { c_mallocs = 0; c_frees = 0; c_bad = 0; c_free_at = Array.make nprocs (-1); c_lat = Vec.create ~cap:65536 () }
  in
  let time_replaces = match shape with Larson _ -> true | Serve _ -> false in
  let a = client_wrap client ~time_replaces pf a in
  let ends = Array.init nprocs (fun _ -> Vec.create ()) in
  let rc = Server_mix.new_recorder () in
  let nreq = ref 0 in
  Server_mix.set_sink rc (fun ~arrival ~latency ~who ->
      Vec.push client.c_lat latency;
      Vec.push ends.(who) (arrival + latency);
      Vec.push ends.(who) !nreq;
      incr nreq);
  let expected =
    match shape with
    | Larson p -> nprocs * p.Larson.rounds * p.Larson.handoffs
    | Serve p -> max 1 (p.Server_mix.requests / nprocs) * nprocs
  in
  (make_workload ~recorder:rc shape).Workload_intf.spawn sim pf a ~nthreads:nprocs;
  let (), host_s = time (fun () -> Sim.run sim) in
  let stats, problems = output_problems raw sim client in
  let lat = Vec.to_array client.c_lat in
  let hist = Histogram.buckets (Server_mix.request_latencies rc) in
  {
    cycles = Sim.total_cycles sim;
    proc_cycles = Array.init nprocs (Sim.proc_cycles sim);
    stats;
    lock_stats = Sim.lock_stats sim;
    addr_space = Vmem.address_space_bytes (Sim.vmem sim);
    host_s;
    lat;
    expected;
    hist;
    client;
    ends =
      Array.map
        (fun v ->
          let a = Vec.to_array v in
          Array.init (Array.length a / 2) (fun i -> (a.(2 * i), a.((2 * i) + 1))))
        ends;
    problems;
    tracer;
  }

let block_ops s = s.client.c_mallocs + s.client.c_frees

(* Failed operations: invalid blocks, requests that never completed, and
   failed output checks. *)
let failures s = s.client.c_bad + (s.expected - completed s) + List.length s.problems

let info fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

let report wl s = List.iter (fun p -> info "FAILED %s: %s" wl.name p) s.problems

(* --- the highest sustainable request rate ---

   Serve workloads are open loops. Their rate is read off a fixed grid of
   mean inter-arrival gaps: starting from the workload's own rate, step
   up the grid while p99 request latency stays within [p99_limit] and
   every request completes correctly, and down while not, then
   interpolate between the adjacent grid points on either side of the
   limit. Larson workloads are closed loops, whose
   highest sustainable rate is their throughput: replaces completed per
   simulated Mcycle. *)

let p99_limit = 150_000

let rate_grid_gaps = [| 8000; 6000; 5000; 4000; 3300; 2700; 2200; 1800; 1500 |]

let rate_of_gap gap = float_of_int nprocs *. 1e6 /. float_of_int gap

(* Returns the rate and the grid passes it ran besides [base]. *)
let max_rate wl shape base =
  match shape with
  | Larson _ -> (float_of_int (completed base) /. (float_of_int base.cycles /. 1e6), [])
  | Serve p ->
    let n = Array.length rate_grid_gaps in
    let home =
      match Array.find_index (fun g -> g = p.Server_mix.gap) rate_grid_gaps with
      | Some i -> i
      | None -> fail "serve gap %d is not on the rate grid" p.Server_mix.gap
    in
    let runs = Array.make n None in
    runs.(home) <- Some base;
    let run_at i =
      match runs.(i) with
      | Some s -> s
      | None ->
        Gc.compact ();
        let s = simulate wl (Serve { p with Server_mix.gap = rate_grid_gaps.(i) }) in
        report wl s;
        runs.(i) <- Some s;
        s
    in
    let p99 i = quantile_int (run_at i).lat 0.99 in
    let ok i = failures (run_at i) = 0 && p99 i <= p99_limit in
    let rate i = rate_of_gap rate_grid_gaps.(i) in
    (* [lo] meets the limit and [lo + 1] does not. Near saturation p99
       grows roughly exponentially with the rate, so interpolate its log;
       a point that missed by failing rather than by latency ends the
       search at [lo]. *)
    let between lo =
      let l i = log (float_of_int (max 1 (p99 i))) in
      let q0 = l lo and q1 = l (lo + 1) and limit = log (float_of_int p99_limit) in
      if q1 <= limit then rate lo else rate lo +. ((rate (lo + 1) -. rate lo) *. (limit -. q0) /. (q1 -. q0))
    in
    let rec up i = if i = n - 1 then rate i else if ok (i + 1) then up (i + 1) else between i in
    let rec down i = if i = 0 then rate 0 else if ok (i - 1) then between (i - 1) else down (i - 1) in
    let r = if ok home then up home else down home in
    let grid =
      List.filter_map
        (fun i ->
          match runs.(i) with
          | Some s when i <> home ->
            info "rate grid: %.1f req/Mcycle -> p99 %d cycles (limit %d)%s" (rate i) (p99 i) p99_limit
              (if failures s > 0 then ", FAILED" else "");
            Some s
          | _ -> None)
        (List.init n Fun.id)
    in
    (r, grid)

(* --- JSON output --- *)

let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let emit ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit) metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (failed = 0) attempted
    failed m

(* --- end-to-end pass --- *)

(* Set-up is what the program does before its first request: a fresh
   simulated machine with the allocator instantiated on it and the
   workload built over them, and a fresh host platform with its own
   allocator for the replay. *)
let set_up wl shape =
  let factory = factory_of wl in
  let sim = Sim.create ~nprocs () in
  let a = factory.Alloc_intf.instantiate (Sim.platform sim) in
  let w = make_workload shape in
  let hpf = Platform.host ~nprocs () in
  let ha = factory.Alloc_intf.instantiate hpf in
  Platform.host_release hpf;
  ignore (Sys.opaque_identity (a, w, ha))

(* The shape of the passes timed on the host: the workload itself, except
   that serve workloads use an eighth of their requests so that one pass
   takes a fraction of a second. The host replay's stream is recorded
   from one such pass. *)
let timed_shape = function
  | Larson p -> Larson p
  | Serve p -> Serve { p with Server_mix.requests = p.Server_mix.requests / 8 }

(* Block operations each host-replay repetition covers at least. *)
let replay_min_ops = 400_000

(* Minimum measuring rounds, whatever [--seconds] says. *)
let min_rounds = 5

(* Host times are calibrated. A shared machine's speed can drift by tens
   of percent over seconds, so every round also times a fixed
   reference computation (hash-table churn, allocating like the allocator
   does), and each host time of the round is reported as its ratio to the
   reference times [reference_nominal_s]: the time it would take where the
   reference takes exactly that long. The raw medians are printed too. *)
let reference_nominal_s = 0.05

let reference () =
  let h = Hashtbl.create 16 in
  let x = ref 12345 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    if Hashtbl.mem h k then Hashtbl.remove h k else Hashtbl.replace h k [ k; !x ]
  done;
  ignore (Sys.opaque_identity h)

(* One measuring round: the reference, set-up, an untraced simulated pass
   and a host-replay repetition, each from a compacted heap. *)
type round = { ref_s : float; setup : float; pass : sim; replay : Pb_replay.rep option }

let end_to_end wl ~seed ~seconds =
  let factory = factory_of wl in
  let deadline = now_s () +. float_of_int seconds in
  let shape = wl.shape ~seed in
  let recorder = Pb_replay.recorder () in
  let recorded = simulate ~recorder wl (timed_shape shape) in
  report wl recorded;
  let stream = Pb_replay.resolve recorder in
  let driver_words = Pb_replay.driver_words stream in
  if driver_words > 16.0 then fail "host replay driver allocated %.0f words over the stream" driver_words;
  (* Simulated figures: deterministic for the seed. *)
  let base = simulate wl shape in
  report wl base;
  let rate, grid = max_rate wl shape base in
  (* Host measurements, in rounds until the measuring time is up. *)
  let passes = Pb_replay.passes stream ~min_ops:replay_min_ops in
  let timed f =
    Gc.compact ();
    time f
  in
  let rounds = ref [] in
  while List.length !rounds < min_rounds || now_s () < deadline do
    let (), ref_s = timed reference in
    let (), setup = timed (fun () -> set_up wl shape) in
    Gc.compact ();
    let pass = simulate wl (timed_shape shape) in
    if pass.cycles <> recorded.cycles then fail "simulated cycles differ between identical passes";
    Gc.compact ();
    let replay =
      match Pb_replay.run_once stream factory ~nprocs ~passes with
      | r -> Some r
      | exception Failure m ->
        info "FAILED host replay: %s" m;
        None
    in
    rounds := { ref_s; setup; pass; replay } :: !rounds
  done;
  let rounds = !rounds in
  let replayed = List.filter_map (fun r -> Option.map (fun p -> (r, p)) r.replay) rounds in
  let calibrated x r = x *. reference_nominal_s /. r.ref_s in
  let host_ns = List.map (fun (r, p) -> calibrated p.Pb_replay.ns_per_op r) replayed in
  let host_words = List.map (fun (_, p) -> p.Pb_replay.words_per_op) replayed in
  let pass_ns r = r.pass.host_s *. 1e9 /. float_of_int (block_ops r.pass) in
  let sim_ns = List.map (fun r -> calibrated (pass_ns r) r) rounds in
  let setups = List.map (fun r -> calibrated r.setup r) rounds in
  let replay_failures = List.length rounds - List.length replayed in
  if replayed = [] then fail "every host replay failed";
  let st = base.stats in
  info "%s under %s, seed %d: %d of %d requests, %d block ops, %d simulated cycles" wl.name wl.alloc seed
    (completed base) base.expected (block_ops base) base.cycles;
  info "request latency over %d samples: p50 %d, p99 %d cycles" (completed base) (quantile_int base.lat 0.5)
    (quantile_int base.lat 0.99);
  let summary what unit xs =
    let q1, q3 = quartiles xs in
    info "%s: median %.6g %s (q1 %.6g, q3 %.6g) over %d" what (median_float xs) unit q1 q3 (List.length xs)
  in
  summary "reference" "s" (List.map (fun r -> r.ref_s) rounds);
  summary
    (Printf.sprintf "host replay of %d x %d block ops, calibrated (replay driver: %.0f words)" passes
       stream.Pb_replay.block_ops driver_words)
    "ns/op" host_ns;
  summary "host replay, raw" "ns/op" (List.map (fun (_, p) -> p.Pb_replay.ns_per_op) replayed);
  summary (Printf.sprintf "untraced passes of %d block ops, calibrated" (block_ops recorded)) "ns/simulated op" sim_ns;
  summary "untraced passes, raw" "ns/simulated op" (List.map pass_ns rounds);
  summary "set-up, calibrated" "s" setups;
  summary "set-up, raw" "s" (List.map (fun r -> r.setup) rounds);
  let metrics =
    [
      ("sim_mcycles", "Mcycles", float_of_int base.cycles /. 1e6);
      ("req_p50_kcycles", "kcycles", float_of_int (quantile_int base.lat 0.5) /. 1e3);
      ("req_p99_kcycles", "kcycles", float_of_int (quantile_int base.lat 0.99) /. 1e3);
      ("max_req_rate_per_mcycle", "1/Mcycle", rate);
      ("peak_resident_kib", "KiB", float_of_int st.Alloc_stats.peak_resident_bytes /. 1024.0);
      ("held_over_live", "ratio", Alloc_stats.fragmentation st);
      ("host_ns_per_op", "ns", median_float host_ns);
      ("host_words_per_op", "words", median_float host_words);
      ("sim_host_ns_per_op", "ns", median_float sim_ns);
      ("setup_s", "s", median_float setups);
    ]
  in
  let all = (recorded :: base :: grid) @ List.map (fun r -> r.pass) rounds in
  let attempted =
    List.fold_left (fun acc s -> acc + block_ops s) 0 all + (List.length rounds * passes * stream.Pb_replay.block_ops)
  in
  let failed = List.fold_left (fun acc s -> acc + failures s) 0 all + replay_failures in
  (attempted, failed, metrics)

(* --- traced pass --- *)

(* The traced pass must be the untraced run, cycle for cycle: same
   completion time, same allocator statistics, same request latencies. *)
let check_neutral u t =
  if t.cycles <> u.cycles then fail "trace changed the run: %d cycles traced, %d untraced" t.cycles u.cycles;
  if t.stats <> u.stats then fail "trace changed the allocator statistics";
  if t.lat <> u.lat || t.hist <> u.hist then fail "trace changed the request latencies"

(* The wrappers' counts must agree with the simulator's and the
   allocator's own: acquisitions per lock, OS maps and unmaps, large maps. *)
let reconcile t tr =
  let sim_acq name = List.fold_left (fun acc (n, a, _) -> if n = name then acc + a else acc) 0 t.lock_stats in
  List.iter
    (fun (name, n) ->
      if n <> sim_acq name then fail "lock %s: %d acquisitions wrapped, %d in the simulator" name n (sim_acq name))
    (Pb_trace.lock_acquisitions_by_name tr);
  let st = t.stats in
  let eq what a b = if a <> b then fail "%s: %d counted by the trace, %d by the allocator" what a b in
  eq "os maps" tr.Pb_trace.os_maps st.Alloc_stats.os_maps;
  eq "os unmaps" tr.Pb_trace.os_unmaps st.Alloc_stats.os_unmaps;
  eq "large maps" tr.Pb_trace.large_maps st.Alloc_stats.large_maps

(* The untraced numbers must equal what the repository's own harness
   reports for the same inputs: [Slo.run_server], which [hoard_bench serve]
   runs, on serve workloads, and [Runner.run] on Larson workloads. Both
   run the allocator's check and raise if it fails; that failure is
   already counted by the benchmark's own pass. *)
let cross_check wl shape u =
  let factory = factory_of wl in
  match shape with
  | Serve params -> (
    match Slo.run_server ~params factory ~nprocs with
    | exception Failure m -> info "cross-check skipped: hoard_bench serve failed (%s)" m
    | r ->
      let h = Server_mix.request_latencies r.Slo.sv_recorder in
      if r.Slo.sv_cycles <> u.cycles then fail "hoard_bench serve: %d cycles, benchmark %d" r.Slo.sv_cycles u.cycles;
      if Histogram.buckets h <> u.hist then fail "hoard_bench serve: request histogram differs";
      if r.Slo.sv_stats.Alloc_stats.peak_resident_bytes <> u.stats.Alloc_stats.peak_resident_bytes then
        fail "hoard_bench serve: peak resident differs";
      info "cross-check: hoard_bench serve gives %d cycles, %d requests, p50 %d, p99 %d: equal" r.Slo.sv_cycles
        (Histogram.count h) (Histogram.percentile h 0.5) (Histogram.percentile h 0.99))
  | Larson params -> (
    match Runner.run (Runner.spec (Larson.make ~params ()) factory ~nprocs) with
    | exception Failure m -> info "cross-check skipped: Runner.run failed (%s)" m
    | r ->
      if r.Runner.r_cycles <> u.cycles then fail "Runner.run: %d cycles, benchmark %d" r.Runner.r_cycles u.cycles;
      if r.Runner.r_stats <> u.stats then fail "Runner.run: allocator statistics differ";
      info "cross-check: Runner.run gives %d cycles and identical statistics" r.Runner.r_cycles)

(* Request id of an allocator call on [proc] starting at [start]: requests
   on one processor run back to back, so the call belongs to the first
   request there that ends after it starts. *)
let request_of s ~proc ~start =
  let ends = s.ends.(proc) in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst ends.(mid) > start then go lo mid else go (mid + 1) hi
  in
  let i = go 0 (Array.length ends) in
  if i < Array.length ends then snd ends.(i) else -1

let trace_dir = Filename.concat "perfbench" "_out"

let per_layer wl ~seed =
  let shape = wl.shape ~seed in
  Gc.compact ();
  let u = simulate wl shape in
  Gc.compact ();
  let t = simulate ~trace:true wl shape in
  report wl t;
  let tr = Option.get t.tracer in
  check_neutral u t;
  reconcile t tr;
  cross_check wl shape u;
  let st = t.stats in
  let open Pb_trace in
  let f = float_of_int in
  let lay arr l = f arr.(l) in
  let metrics =
    [
      ("alloc.calls", "count", f tr.alloc_calls);
      ("alloc.cycles", "cycles", f tr.alloc_cycles);
      ("alloc.self_cycles", "cycles", f (tr.alloc_cycles - tr.alloc_child_cycles));
      ("alloc.malloc_p99_cycles", "cycles", f (quantile_int (latencies tr entry_malloc) 0.99));
      ("alloc.free_p99_cycles", "cycles", f (quantile_int (latencies tr entry_free) 0.99));
      ("alloc.batch_p99_cycles", "cycles", f (quantile_int (batch_latencies tr) 0.99));
      ("hoard.tcache_hit_ratio", "ratio", ratio st.Alloc_stats.cache_hits st.Alloc_stats.mallocs);
      ("hoard.tcache_fills", "count", f st.Alloc_stats.cache_fills);
      ("hoard.tcache_flushes", "count", f st.Alloc_stats.cache_flushes);
      ("rfq.enqueues", "count", f st.Alloc_stats.remote_enqueues);
      ("rfq.drains", "count", f st.Alloc_stats.remote_drains);
      ("rfq.lock_acquisitions", "count", lay tr.lock_acq rfq);
      ("rfq.lock_wait_cycles", "cycles", lay tr.lock_wait rfq);
      ("deferred_list.enqueues", "count", f st.Alloc_stats.deferred_enqueues);
      ("deferred_list.reclaims", "count", f st.Alloc_stats.deferred_reclaims);
      ("deferred_list.atomic_cycles", "cycles", lay tr.atomic_cycles deferred_list);
      ("deferred_list.cas_retries", "count", lay tr.cas_fail deferred_list);
      ("heap_core.lock_acquisitions", "count", lay tr.lock_acq heap_core);
      ("heap_core.lock_wait_cycles", "cycles", lay tr.lock_wait heap_core);
      ("heap_core.lock_hold_cycles", "cycles", lay tr.lock_hold heap_core);
      ("heap_core.remote_frees", "count", f st.Alloc_stats.remote_frees);
      ("heap0.lock_acquisitions", "count", lay tr.lock_acq heap0);
      ("heap0.lock_wait_cycles", "cycles", lay tr.lock_wait heap0);
      ("heap0.sb_to_global", "count", f st.Alloc_stats.sb_to_global);
      ("heap0.sb_from_global", "count", f st.Alloc_stats.sb_from_global);
      ("global_index.pushes", "count", f st.Alloc_stats.global_pushes);
      ("global_index.pops", "count", f st.Alloc_stats.global_pops);
      ("global_index.atomic_cycles", "cycles", lay tr.atomic_cycles global_index);
      ("global_index.cas_retries", "count", lay tr.cas_fail global_index);
      ("large_alloc.maps", "count", f tr.large_maps);
      ("large_alloc.lock_wait_cycles", "cycles", lay tr.lock_wait large_alloc);
      ("large_alloc.lock_hold_cycles", "cycles", lay tr.lock_hold large_alloc);
      ( "large_cache.hit_ratio",
        "ratio",
        ratio st.Alloc_stats.large_cache_hits (st.Alloc_stats.large_cache_hits + st.Alloc_stats.large_maps) );
      ("vmem.page_calls", "count", f tr.page_calls);
      ("vmem.page_cycles", "cycles", f tr.page_cycles);
      ("vmem.os_maps", "count", f tr.os_maps);
      ("vmem.os_unmaps", "count", f tr.os_unmaps);
      ("vmem.addr_space_kib", "KiB", f t.addr_space /. 1024.0);
      ("sb_registry.lock_wait_cycles", "cycles", lay tr.lock_wait sb_registry);
      ("cache.mem_cycles", "cycles", f tr.mem_cycles);
      ("cache.coherence_misses", "count", f tr.coherence_misses);
      ("cache.invalidations", "count", f tr.invalidations);
      ("workload.self_cycles", "cycles", f (Array.fold_left ( + ) 0 t.proc_cycles - tr.alloc_cycles));
      ("host.trace_overhead_s", "s", t.host_s -. u.host_s);
    ]
  in
  let path = Filename.concat trace_dir (wl.name ^ ".perfetto.json") in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let json =
    perfetto tr
      ~title:(Printf.sprintf "%s under %s, seed %d (simulated cycles)" wl.name wl.alloc seed)
      ~request:(fun ~proc ~start -> request_of t ~proc ~start)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc json);
  info "%s under %s, seed %d: the traced pass reproduces the untraced one (%d cycles); wrapper counts reconcile"
    wl.name wl.alloc seed t.cycles;
  info "wrote %d spans (%d more not kept) to %s" (span_count tr) tr.dropped path;
  (block_ops u + block_ops t, failures u + failures t, metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default: the workload's own)");
      ("--seconds", Arg.Set_int seconds, "S measuring time of the end-to-end pass");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("perfbench: unknown workload " ^ !workload ^ "; known: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = if !seed < 0 then wl.default_seed else !seed in
  match if !trace = 1 then per_layer wl ~seed else end_to_end wl ~seed ~seconds:!seconds with
  | attempted, failed, metrics -> emit ~attempted ~failed metrics
  | exception Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
