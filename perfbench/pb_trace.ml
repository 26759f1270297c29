(* The benchmark's outside-in tracer. It wraps the two boundaries the
   benchmark controls: the [Alloc_intf.t] entry points the workload calls,
   and the [Platform.t] the allocator is instantiated on. Each wrapped call
   reads only the simulated clock ([Platform.now], which the simulator
   answers without a scheduling point or a charge) and host-side counters,
   so a traced run reproduces the untraced one cycle for cycle; the
   benchmark checks that it does.

   Layers are named after the modules that own the resource a platform
   call touches: locks and atomics map by name, page calls go to [Vmem]
   and the allocator's own loads and stores to [Cache]. *)

open Pb_util

let layer_names =
  [| "heap0"; "heap_core"; "rfq"; "deferred_list"; "global_index"; "large_cache"; "large_alloc"; "sb_registry";
     "empty_tier"; "other" |]

let nlayers = Array.length layer_names

let heap0 = 0

let heap_core = 1

let rfq = 2

let deferred_list = 3

let global_index = 4

let large_cache = 5

let large_alloc = 6

let sb_registry = 7

let empty_tier = 8

let other = 9

(* Lock and atomic names as [Hoard] and its structures create them:
   [hoard.heap0] is the global heap, every other [hoard.heap<i>] a
   per-processor [Heap_core]. *)
let layer_of_name name =
  let pre p = String.starts_with ~prefix:p name in
  if name = "hoard.heap0" then heap0
  else if pre "hoard.heap" then heap_core
  else if pre "hoard.rfq" then rfq
  else if pre "hoard.dfl" then deferred_list
  else if pre "hoard.gindex" then global_index
  else if pre "hoard.lcache" then large_cache
  else if name = "large" then large_alloc
  else if pre "sbreg." then sb_registry
  else if pre "hoard.shelf" || pre "hoard.reservoir" then empty_tier
  else other

(* Allocator entry points, in the order their span names are registered. *)
let entry_malloc = 0

let entry_free = 1

let entry_malloc_batch = 2

let entry_free_batch = 3

let entry_other = 4

(* Spans kept for the Perfetto export; counters cover every call. *)
let max_spans = 200_000

type t = {
  pf : Platform.t;  (** the raw simulated platform *)
  cache : Cache.t;
  mutable active : int;  (** allocator calls open across all processors *)
  cur : int array;  (** per processor: stored span of the open allocator call, or -1 *)
  child : int array;  (** per processor: cycles spent in platform calls inside the open allocator call *)
  large_held : int array;  (** per processor: [large] locks held *)
  lock_acq : int array;
  lock_wait : int array;
  lock_hold : int array;
  atomic_cycles : int array;
  cas_fail : int array;
  acq_by_name : (string, int ref) Hashtbl.t;
  mutable page_calls : int;
  mutable page_cycles : int;
  mutable os_maps : int;
  mutable os_unmaps : int;
  mutable large_maps : int;
  mutable mem_cycles : int;
  mutable coherence_misses : int;
  mutable invalidations : int;
  mutable alloc_calls : int;
  mutable alloc_cycles : int;
  mutable alloc_child_cycles : int;
  lat : Vec.t array;  (** call durations per entry kind *)
  (* Spans, kept in memory up to [max_spans] and written at the end. *)
  names : (string, int) Hashtbl.t;
  mutable name_list : string list;  (** reversed *)
  sp_name : Vec.t;
  sp_proc : Vec.t;
  sp_start : Vec.t;
  sp_end : Vec.t;
  sp_parent : Vec.t;
  mutable dropped : int;
}

let create sim =
  let pf = Sim.platform sim in
  let n = pf.Platform.nprocs in
  let arr () = Array.make nlayers 0 in
  {
    pf;
    cache = Sim.cache sim;
    active = 0;
    cur = Array.make n (-1);
    child = Array.make n 0;
    large_held = Array.make n 0;
    lock_acq = arr ();
    lock_wait = arr ();
    lock_hold = arr ();
    atomic_cycles = arr ();
    cas_fail = arr ();
    acq_by_name = Hashtbl.create 64;
    page_calls = 0;
    page_cycles = 0;
    os_maps = 0;
    os_unmaps = 0;
    large_maps = 0;
    mem_cycles = 0;
    coherence_misses = 0;
    invalidations = 0;
    alloc_calls = 0;
    alloc_cycles = 0;
    alloc_child_cycles = 0;
    lat = Array.init 5 (fun _ -> Vec.create ());
    names = Hashtbl.create 64;
    name_list = [];
    sp_name = Vec.create ();
    sp_proc = Vec.create ();
    sp_start = Vec.create ();
    sp_end = Vec.create ();
    sp_parent = Vec.create ();
    dropped = 0;
  }

let name_id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.names in
    Hashtbl.replace t.names name i;
    t.name_list <- name :: t.name_list;
    i

(* Stores a span and returns its index, or -1 once the store is full. *)
let store t ~name ~proc ~start ~stop ~parent =
  if Vec.length t.sp_name >= max_spans then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    Vec.push t.sp_name name;
    Vec.push t.sp_proc proc;
    Vec.push t.sp_start start;
    Vec.push t.sp_end stop;
    Vec.push t.sp_parent parent;
    Vec.length t.sp_name - 1
  end

(* A platform call inside an open allocator call: counts towards the
   call's child time, so the allocator's self time excludes it. *)
let child t ~name ~proc ~t0 ~t1 =
  t.child.(proc) <- t.child.(proc) + (t1 - t0);
  ignore (store t ~name ~proc ~start:t0 ~stop:t1 ~parent:t.cur.(proc))

(* --- the platform the allocator runs on --- *)

let platform t : Platform.t =
  let raw = t.pf in
  let new_lock name =
    let l = raw.Platform.new_lock name in
    let layer = layer_of_name name in
    let lname = layer_names.(layer) in
    let n_wait = name_id t (lname ^ ".lock_wait")
    and n_rel = name_id t (lname ^ ".lock_release")
    and n_hold = name_id t (lname ^ ".lock_hold") in
    let count =
      match Hashtbl.find_opt t.acq_by_name name with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.replace t.acq_by_name name c;
        c
    in
    let is_large = name = "large" in
    let acquired_at = ref 0 in
    let acquire () =
      incr count;
      t.lock_acq.(layer) <- t.lock_acq.(layer) + 1;
      if t.active = 0 then l.Platform.acquire ()
      else begin
        let proc = raw.Platform.self_proc () in
        let t0 = raw.Platform.now () in
        l.Platform.acquire ();
        let t1 = raw.Platform.now () in
        acquired_at := t1;
        t.lock_wait.(layer) <- t.lock_wait.(layer) + (t1 - t0);
        if is_large then t.large_held.(proc) <- t.large_held.(proc) + 1;
        child t ~name:n_wait ~proc ~t0 ~t1
      end
    in
    let release () =
      if t.active = 0 then l.Platform.release ()
      else begin
        let proc = raw.Platform.self_proc () in
        let t0 = raw.Platform.now () in
        t.lock_hold.(layer) <- t.lock_hold.(layer) + (t0 - !acquired_at);
        ignore (store t ~name:n_hold ~proc ~start:!acquired_at ~stop:t0 ~parent:t.cur.(proc));
        l.Platform.release ();
        let t1 = raw.Platform.now () in
        if is_large then t.large_held.(proc) <- t.large_held.(proc) - 1;
        child t ~name:n_rel ~proc ~t0 ~t1
      end
    in
    { l with Platform.acquire; release }
  in
  let new_atomic name init =
    let a = raw.Platform.new_atomic name init in
    let layer = layer_of_name name in
    let n_op = name_id t (layer_names.(layer) ^ ".atomic") in
    let timed f =
      if t.active = 0 then f ()
      else begin
        let proc = raw.Platform.self_proc () in
        let t0 = raw.Platform.now () in
        let r = f () in
        let t1 = raw.Platform.now () in
        t.atomic_cycles.(layer) <- t.atomic_cycles.(layer) + (t1 - t0);
        child t ~name:n_op ~proc ~t0 ~t1;
        r
      end
    in
    {
      a with
      Platform.load = (fun () -> timed a.Platform.load);
      store = (fun v -> timed (fun () -> a.Platform.store v));
      cas =
        (fun ~expected ~desired ->
          let ok = timed (fun () -> a.Platform.cas ~expected ~desired) in
          if not ok then t.cas_fail.(layer) <- t.cas_fail.(layer) + 1;
          ok);
      faa = (fun n -> timed (fun () -> a.Platform.faa n));
    }
  in
  let page n f =
    if t.active = 0 then f ()
    else begin
      let proc = raw.Platform.self_proc () in
      let t0 = raw.Platform.now () in
      let r = f () in
      let t1 = raw.Platform.now () in
      t.page_calls <- t.page_calls + 1;
      t.page_cycles <- t.page_cycles + (t1 - t0);
      child t ~name:n ~proc ~t0 ~t1;
      r
    end
  in
  let n_map = name_id t "vmem.page_map"
  and n_unmap = name_id t "vmem.page_unmap"
  and n_decommit = name_id t "vmem.page_decommit"
  and n_commit = name_id t "vmem.page_commit" in
  let mem name f =
    let n = name_id t ("cache." ^ name) in
    fun ~addr ~len ->
      if t.active = 0 then f ~addr ~len
      else begin
        let proc = raw.Platform.self_proc () in
        let before = Cache.stats t.cache proc in
        let t0 = raw.Platform.now () in
        f ~addr ~len;
        let t1 = raw.Platform.now () in
        let after = Cache.stats t.cache proc in
        t.mem_cycles <- t.mem_cycles + (t1 - t0);
        t.coherence_misses <-
          t.coherence_misses + (after.Cache.p_coherence_misses - before.Cache.p_coherence_misses);
        t.invalidations <-
          t.invalidations + (after.Cache.p_invalidations_sent - before.Cache.p_invalidations_sent);
        child t ~name:n ~proc ~t0 ~t1
      end
  in
  {
    raw with
    Platform.read = mem "read" raw.Platform.read;
    write = mem "write" raw.Platform.write;
    new_lock;
    new_atomic;
    page_map =
      (fun ~bytes ~align ~owner ->
        t.os_maps <- t.os_maps + 1;
        if t.active > 0 && t.large_held.(raw.Platform.self_proc ()) > 0 then t.large_maps <- t.large_maps + 1;
        page n_map (fun () -> raw.Platform.page_map ~bytes ~align ~owner));
    page_unmap =
      (fun ~addr ->
        t.os_unmaps <- t.os_unmaps + 1;
        page n_unmap (fun () -> raw.Platform.page_unmap ~addr));
    page_decommit = (fun ~addr -> page n_decommit (fun () -> raw.Platform.page_decommit ~addr));
    page_commit = (fun ~addr -> page n_commit (fun () -> raw.Platform.page_commit ~addr));
  }

(* --- the allocator entry points the workload calls --- *)

let wrap t (a : Alloc_intf.t) : Alloc_intf.t =
  let raw = t.pf in
  let call kind name =
    let n = name_id t name in
    fun f ->
      let proc = raw.Platform.self_proc () in
      let t0 = raw.Platform.now () in
      t.active <- t.active + 1;
      t.child.(proc) <- 0;
      t.cur.(proc) <- store t ~name:n ~proc ~start:t0 ~stop:t0 ~parent:(-1);
      let r = f () in
      let t1 = raw.Platform.now () in
      let d = t1 - t0 in
      t.alloc_calls <- t.alloc_calls + 1;
      t.alloc_cycles <- t.alloc_cycles + d;
      t.alloc_child_cycles <- t.alloc_child_cycles + t.child.(proc);
      Vec.push t.lat.(kind) d;
      if t.cur.(proc) >= 0 then Vec.set t.sp_end t.cur.(proc) t1;
      t.cur.(proc) <- -1;
      t.active <- t.active - 1;
      r
  in
  let c_malloc = call entry_malloc "malloc"
  and c_free = call entry_free "free"
  and c_mbatch = call entry_malloc_batch "malloc_batch"
  and c_fbatch = call entry_free_batch "free_batch"
  and c_usable = call entry_other "usable_size"
  and c_realloc = call entry_other "realloc"
  and c_calloc = call entry_other "calloc"
  and c_aligned = call entry_other "aligned_alloc"
  and c_flush = call entry_other "flush"
  and c_exit = call entry_other "thread_exit" in
  {
    a with
    Alloc_intf.malloc = (fun size -> c_malloc (fun () -> a.Alloc_intf.malloc size));
    free = (fun addr -> c_free (fun () -> a.Alloc_intf.free addr));
    malloc_batch = (fun n size -> c_mbatch (fun () -> a.Alloc_intf.malloc_batch n size));
    free_batch = (fun addrs -> c_fbatch (fun () -> a.Alloc_intf.free_batch addrs));
    usable_size = (fun addr -> c_usable (fun () -> a.Alloc_intf.usable_size addr));
    realloc = (fun ~addr ~size -> c_realloc (fun () -> a.Alloc_intf.realloc ~addr ~size));
    calloc = (fun ~count ~size -> c_calloc (fun () -> a.Alloc_intf.calloc ~count ~size));
    aligned_alloc = (fun ~align ~size -> c_aligned (fun () -> a.Alloc_intf.aligned_alloc ~align ~size));
    flush = (fun () -> c_flush (fun () -> a.Alloc_intf.flush ()));
    thread_exit = (fun () -> c_exit (fun () -> a.Alloc_intf.thread_exit ()));
  }

(* --- results --- *)

let lock_acquisitions_by_name t = Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.acq_by_name []

let latencies t kind = Vec.to_array t.lat.(kind)

let batch_latencies t =
  Array.append (Vec.to_array t.lat.(entry_malloc_batch)) (Vec.to_array t.lat.(entry_free_batch))

let span_count t = Vec.length t.sp_name

(* Perfetto export of the stored spans, one thread track per simulated
   processor. Each span carries its own index and its parent's, and
   [request] gives the id of the workload request an allocator call
   served (-1 when it served none). *)
let perfetto t ~title ~request =
  let p = Perfetto.create () in
  let pid = 0 in
  let names = Array.of_list (List.rev t.name_list) in
  Perfetto.process_name p ~pid title;
  Array.iteri (fun proc _ -> Perfetto.thread_name p ~pid ~tid:proc (Printf.sprintf "proc%d" proc)) t.cur;
  for i = 0 to span_count t - 1 do
    let name = names.(Vec.get t.sp_name i) in
    let proc = Vec.get t.sp_proc i in
    let start = Vec.get t.sp_start i in
    let parent = Vec.get t.sp_parent i in
    let root = if parent < 0 then i else parent in
    let cat = match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> "alloc" in
    Perfetto.span p ~name ~cat ~ts:start
      ~dur:(Vec.get t.sp_end i - start)
      ~pid ~tid:proc
      ~args:
        [
          ("span", string_of_int i);
          ("parent", string_of_int parent);
          ("request", string_of_int (request ~proc ~start:(Vec.get t.sp_start root)));
        ]
      ()
  done;
  Perfetto.to_json p
