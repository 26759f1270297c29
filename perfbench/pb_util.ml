(* Small helpers shared by the benchmark's modules: a growable int vector
   (allocation-free appends once grown), exact order statistics, and the
   wall clock. *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(cap = 1024) () = { a = Array.make (max 1 cap) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n

  let get v i = v.a.(i)

  let set v i x = v.a.(i) <- x

  let to_array v = Array.sub v.a 0 v.n
end

(* Nearest-rank quantile of an unsorted sample: the value below which a
   share [q] of the samples fall. 0 on an empty sample. *)
let quantile_int (xs : int array) q =
  let n = Array.length xs in
  if n = 0 then 0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

let median_float xs =
  let s = List.sort compare xs in
  let n = List.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* First and third quartiles, linear interpolation between order
   statistics (the "inclusive" method). *)
let quartiles xs =
  let s = Array.of_list (List.sort compare xs) in
  let n = Array.length s in
  let at p =
    if n = 0 then nan
    else begin
      let h = p *. float_of_int (n - 1) in
      let i = truncate h in
      let f = h -. float_of_int i in
      if i + 1 < n then s.(i) +. (f *. (s.(i + 1) -. s.(i))) else s.(i)
    end
  in
  (at 0.25, at 0.75)

let now_s = Unix.gettimeofday

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let fail fmt = Printf.ksprintf failwith fmt
