(* Host replay: the malloc/free stream a workload issued on the simulator,
   resolved into flat int arrays and replayed on [Platform.host], so the
   allocator's real OCaml code is timed without the simulator around it.

   Recording happens at the allocator boundary of a simulated run. A
   malloc is recorded when it returns and a free when it is entered, so
   the recorded order is a valid sequential history even though the
   simulator interleaves processors: a block's free always follows the
   malloc that produced it. Blocks are named by slot, so the replay never
   looks an address up. *)

open Pb_util

let k_malloc = 0

let k_free = 1

let k_malloc_batch = 2

let k_free_batch = 3

let k_usable = 4

(* Streams live outside the OCaml heap, so the major collector never scans
   them and the replay's timing reflects the allocator's own heap. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints_of_vec v : ints =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 (Vec.length v)) in
  for i = 0 to Vec.length v - 1 do
    Bigarray.Array1.unsafe_set b i (Vec.get v i)
  done;
  b

type stream = {
  nops : int;
  kind : ints;
  x : ints;  (** malloc: size; free, usable_size: slot; malloc_batch: count; free_batch: batch *)
  y : ints;  (** malloc: slot; malloc_batch: size *)
  z : ints;  (** malloc_batch: first slot *)
  batch_ids : ints;  (** slot ids of every [free_batch] call, concatenated *)
  batch_off : ints;  (** call [i] frees [batch_ids.{batch_off.{i}} .. batch_ids.{batch_off.{i+1} - 1}] *)
  nslots : int;
  block_ops : int;  (** blocks allocated plus blocks freed *)
  max_batch : int;
}

type recorder = {
  kind_v : Vec.t;
  x_v : Vec.t;
  y_v : Vec.t;
  z_v : Vec.t;
  ids_v : Vec.t;
  off_v : Vec.t;
  slot_of : (int, int) Hashtbl.t;
  mutable r_nslots : int;
  mutable r_block_ops : int;
  mutable r_max_batch : int;
}

let recorder () =
  let off_v = Vec.create () in
  Vec.push off_v 0;
  {
    kind_v = Vec.create ~cap:65536 ();
    x_v = Vec.create ~cap:65536 ();
    y_v = Vec.create ~cap:65536 ();
    z_v = Vec.create ~cap:65536 ();
    ids_v = Vec.create ~cap:65536 ();
    off_v;
    slot_of = Hashtbl.create 65536;
    r_nslots = 0;
    r_block_ops = 0;
    r_max_batch = 1;
  }

let op r k x y z =
  Vec.push r.kind_v k;
  Vec.push r.x_v x;
  Vec.push r.y_v y;
  Vec.push r.z_v z

let fresh r addr =
  let s = r.r_nslots in
  r.r_nslots <- s + 1;
  Hashtbl.replace r.slot_of addr s;
  s

let live_slot r addr =
  match Hashtbl.find_opt r.slot_of addr with
  | Some s -> s
  | None -> fail "replay recorder: address %d is not a live block" addr

let take r addr =
  let s = live_slot r addr in
  Hashtbl.remove r.slot_of addr;
  s

let unsupported what = fail "replay recorder: the workload called %s, which the replay does not model" what

let wrap r (a : Alloc_intf.t) : Alloc_intf.t =
  {
    a with
    Alloc_intf.malloc =
      (fun size ->
        let p = a.Alloc_intf.malloc size in
        op r k_malloc size (fresh r p) 0;
        r.r_block_ops <- r.r_block_ops + 1;
        p);
    free =
      (fun addr ->
        op r k_free (take r addr) 0 0;
        r.r_block_ops <- r.r_block_ops + 1;
        a.Alloc_intf.free addr);
    malloc_batch =
      (fun n size ->
        let blocks = a.Alloc_intf.malloc_batch n size in
        let base = r.r_nslots in
        Array.iter (fun p -> ignore (fresh r p)) blocks;
        op r k_malloc_batch (Array.length blocks) size base;
        r.r_block_ops <- r.r_block_ops + Array.length blocks;
        r.r_max_batch <- max r.r_max_batch (Array.length blocks);
        blocks);
    free_batch =
      (fun addrs ->
        Array.iter (fun p -> Vec.push r.ids_v (take r p)) addrs;
        op r k_free_batch (Vec.length r.off_v - 1) 0 0;
        Vec.push r.off_v (Vec.length r.ids_v);
        r.r_block_ops <- r.r_block_ops + Array.length addrs;
        r.r_max_batch <- max r.r_max_batch (Array.length addrs);
        a.Alloc_intf.free_batch addrs);
    usable_size =
      (fun addr ->
        op r k_usable (live_slot r addr) 0 0;
        a.Alloc_intf.usable_size addr);
    realloc = (fun ~addr:_ ~size:_ -> unsupported "realloc");
    calloc = (fun ~count:_ ~size:_ -> unsupported "calloc");
    aligned_alloc = (fun ~align:_ ~size:_ -> unsupported "aligned_alloc");
    flush = (fun () -> unsupported "flush");
    thread_exit = (fun () -> unsupported "thread_exit");
  }

let resolve r =
  if Hashtbl.length r.slot_of > 0 then
    fail "replay recorder: %d blocks still live at the end of the run" (Hashtbl.length r.slot_of);
  {
    nops = Vec.length r.kind_v;
    kind = ints_of_vec r.kind_v;
    x = ints_of_vec r.x_v;
    y = ints_of_vec r.y_v;
    z = ints_of_vec r.z_v;
    batch_ids = ints_of_vec r.ids_v;
    batch_off = ints_of_vec r.off_v;
    nslots = r.r_nslots;
    block_ops = r.r_block_ops;
    max_batch = r.r_max_batch;
  }

(* The replay loop. It allocates nothing itself ([driver_words] proves it
   against an allocator that allocates nothing either): slots live off the
   heap and [free_batch] arguments are refilled buffers, one per length. *)
let replay (s : stream) (a : Alloc_intf.t) (slots : ints) (bufs : int array array) =
  let open Bigarray.Array1 in
  let kind = s.kind and x = s.x and y = s.y and z = s.z in
  for i = 0 to s.nops - 1 do
    let k = unsafe_get kind i in
    if k = k_malloc then unsafe_set slots (unsafe_get y i) (a.Alloc_intf.malloc (unsafe_get x i))
    else if k = k_free then a.Alloc_intf.free (unsafe_get slots (unsafe_get x i))
    else if k = k_malloc_batch then begin
      let blocks = a.Alloc_intf.malloc_batch (unsafe_get x i) (unsafe_get y i) in
      let base = unsafe_get z i in
      for j = 0 to Array.length blocks - 1 do
        unsafe_set slots (base + j) (Array.unsafe_get blocks j)
      done
    end
    else if k = k_free_batch then begin
      let b = unsafe_get x i in
      let lo = unsafe_get s.batch_off b in
      let buf = Array.unsafe_get bufs (unsafe_get s.batch_off (b + 1) - lo) in
      for j = 0 to Array.length buf - 1 do
        Array.unsafe_set buf j (unsafe_get slots (unsafe_get s.batch_ids (lo + j)))
      done;
      a.Alloc_intf.free_batch buf
    end
    else ignore (a.Alloc_intf.usable_size (unsafe_get slots (unsafe_get x i)))
  done

let buffers (s : stream) = Array.init (s.max_batch + 1) (fun n -> Array.make n 0)

let slots (s : stream) : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 s.nslots)

let minor_words () = Gc.minor_words ()

(* An allocator that allocates no OCaml memory: batch results come from
   arrays built before the replay starts. *)
let stub (s : stream) =
  let next = ref 0 in
  let batch = Array.init (s.max_batch + 1) (fun n -> Array.make n 0) in
  let fresh () =
    next := !next + 16;
    !next
  in
  let stats = Alloc_stats.snapshot (Alloc_stats.create ()) in
  {
    Alloc_intf.name = "stub";
    owner = 0;
    large_threshold = max_int;
    malloc = (fun _ -> fresh ());
    free = (fun _ -> ());
    usable_size = (fun _ -> 0);
    stats = (fun () -> stats);
    check = (fun () -> ());
    malloc_batch =
      (fun n _ ->
        let b = batch.(n) in
        for i = 0 to n - 1 do
          b.(i) <- fresh ()
        done;
        b);
    free_batch = (fun _ -> ());
    flush = (fun () -> ());
    thread_exit = (fun () -> ());
    realloc = (fun ~addr:_ ~size:_ -> 0);
    calloc = (fun ~count:_ ~size:_ -> 0);
    aligned_alloc = (fun ~align:_ ~size:_ -> 0);
  }

(* Words the replay driver itself allocates over a whole stream, measured
   against [stub]; anything but a handful of words for the counter reads
   means the driver would bias [host_words_per_op]. *)
let driver_words (s : stream) =
  let slots = slots s and bufs = buffers s in
  let a = stub s in
  let w0 = minor_words () in
  replay s a slots bufs;
  let w1 = minor_words () in
  w1 -. w0

type rep = { ns_per_op : float; words_per_op : float }

(* Replays per repetition: enough passes over the stream for a repetition
   to cover [min_ops] block operations, so short streams are not timed at
   the clock's resolution. *)
let passes (s : stream) ~min_ops = max 1 ((min_ops + s.block_ops - 1) / s.block_ops)

(* One repetition: a fresh host platform and allocator, the timed passes,
   the allocator's own check, and conservation (every block the stream
   allocated was freed), then release and compaction so the next
   repetition starts from the same heap state. *)
let run_once (s : stream) (factory : Alloc_intf.factory) ~nprocs ~passes =
  let pf = Platform.host ~nprocs () in
  let a = factory.Alloc_intf.instantiate pf in
  let slots = slots s and bufs = buffers s in
  let w0 = minor_words () in
  let t0 = now_s () in
  for _ = 1 to passes do
    replay s a slots bufs
  done;
  let t1 = now_s () in
  let w1 = minor_words () in
  a.Alloc_intf.check ();
  let st = a.Alloc_intf.stats () in
  let live = st.Alloc_stats.mallocs - st.Alloc_stats.frees in
  Platform.host_release pf;
  Gc.compact ();
  if live <> 0 then fail "host replay: %d mallocs not matched by frees after a balanced stream" live;
  let ops = float_of_int (passes * s.block_ops) in
  { ns_per_op = (t1 -. t0) *. 1e9 /. ops; words_per_op = (w1 -. w0) /. ops }
