(* Struct-of-arrays binary min-heap: timestamps and sequence numbers live
   in flat unboxed arrays ([float array] / [int array]), payloads in a
   parallel ['a option array]. Sift compares never chase a pointer and
   neither [push] nor [pop_payload] allocates beyond the payload's own
   [Some] cell (which is handed back verbatim by [pop_payload]). The
   option is what gives an empty slot a value of type ['a] without an
   unsafe cast or a caller-supplied filler.

   Slots at or above [size] hold [None]: a popped entry must not linger in
   the backing array, because event payloads are closures over node state
   and long simulations would otherwise retain one dead closure per pop
   (the vacated slot aliases live entries only transitively, so the leak
   shows up as popped-but-reachable payloads, not as a monotonic
   counter). *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable data : 'a option array;
  mutable size : int;
  mutable next_seq : int;
}

(* Capacity kept through a drain: ping-pong workloads pop the heap to
   empty once per event, and re-allocating a fresh backing array per pop
   costs more than the handful of nulled slots retained here. Above this
   the arrays are dropped so a burst does not pin its high-water mark. *)
let retained_capacity = 64

let create () = { times = [||]; seqs = [||]; data = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

(* Entry ordering: earlier time first; insertion order breaks ties. Spelled
   as an explicit monomorphic comparison — Float time then int seq — so
   the total order (including NaN placement, which push rejects anyway)
   is defined here and not by the polymorphic compare runtime. Sequence
   numbers are unique, so the order is total and strict. Inlined so the
   times stay unboxed. *)
let[@inline] precedes (ti : float) (si : int) (tj : float) (sj : int) =
  if ti < tj then true else if ti > tj then false else si < sj

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make new_cap 0. in
  let seqs = Array.make new_cap 0 in
  let data = Array.make new_cap None in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.data <- data

(* Both sifts move a hole rather than swapping entries: each level costs
   one store per array, and the moving entry is written once, where the
   hole stops. *)
let push t ~time x =
  if not (Float.is_finite time) then invalid_arg "Event_heap.push: non-finite time";
  if t.size = Array.length t.data then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* Sift up. The new entry has the largest sequence number, so it goes
     above a parent only when its time is strictly earlier. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < t.times.(parent) then begin
      t.times.(!i) <- t.times.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.data.(!i) <- t.data.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.data.(!i) <- Some x
[@@lint.allow
  "unbounded-retry"
    "the sift-up loop strictly decreases the index toward the root each \
     iteration, so it is bounded by the heap depth (log of size); no budget \
     can be threaded below the simulator's per-event granularity"]

(* Remove the root, restore the heap, and hand back the root's payload
   cell as stored — the caller receives the existing [Some] block, so the
   dispatch path allocates nothing. *)
let pop_payload t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size = 0 then begin
      (* Heap drained: null the vacated root but keep a small backing
         array so drain-per-event workloads do not re-allocate on every
         push; anything larger is dropped wholesale. *)
      if Array.length t.data > retained_capacity then begin
        t.times <- [||];
        t.seqs <- [||];
        t.data <- [||]
      end
      else t.data.(0) <- None
    end
    else begin
      let last = t.size in
      let time = t.times.(last) and seq = t.seqs.(last) and cell = t.data.(last) in
      (* Null the vacated slot so the entry moved into the hole is the only
         reference the array keeps. *)
      t.data.(last) <- None;
      (* Sift down the hole left at the root. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= last then continue := false
        else begin
          let r = l + 1 in
          let c =
            if r < last && precedes t.times.(r) t.seqs.(r) t.times.(l) t.seqs.(l) then r
            else l
          in
          if precedes t.times.(c) t.seqs.(c) time seq then begin
            t.times.(!i) <- t.times.(c);
            t.seqs.(!i) <- t.seqs.(c);
            t.data.(!i) <- t.data.(c);
            i := c
          end
          else continue := false
        end
      done;
      t.times.(!i) <- time;
      t.seqs.(!i) <- seq;
      t.data.(!i) <- cell
    end;
    top
  end
[@@lint.allow
  "unbounded-retry"
    "the sift-down loop strictly descends the heap (the index at least \
     doubles each iteration), so it is bounded by the heap depth; no budget \
     can be threaded below the simulator's per-event granularity"]

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    match pop_payload t with
    | Some x -> Some (time, x)
    | None -> assert false (* slots below [size] are always populated *)
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let peek_time_exn t =
  if t.size = 0 then invalid_arg "Event_heap.peek_time_exn: empty heap"
  else t.times.(0)

let clear t =
  (* Null every live payload slot (releasing the closures) but keep small
     arrays, mirroring the drain policy above. *)
  if Array.length t.data > retained_capacity then begin
    t.times <- [||];
    t.seqs <- [||];
    t.data <- [||]
  end
  else Array.fill t.data 0 t.size None;
  t.size <- 0;
  t.next_seq <- 0
